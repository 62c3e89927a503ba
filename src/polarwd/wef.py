"""Exact dense weight-enumerator polynomials and the MacWilliams transform.

Coefficients are Python ints, so nothing ever overflows or rounds; the code
weight counts at length 128 already exceed 2^62.  Multiplication is schoolbook
convolution: degrees stay at or below the block length.  ``macwilliams``
instead evaluates its whole transform on one big int (Kronecker
substitution): the polynomial sum_w A_w X^w becomes sum_w A_w 2^{w W} for a
slot width W wide enough that no slot carries.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence


class WeightEnumerator:
    """Polynomial sum_w A_w X^w with exact non-negative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.coeffs = trimmed

    @classmethod
    def zero(cls) -> "WeightEnumerator":
        return cls()

    @classmethod
    def one(cls) -> "WeightEnumerator":
        return cls([1])

    @classmethod
    def x(cls) -> "WeightEnumerator":
        return cls([0, 1])

    @classmethod
    def monomial(cls, w: int, count: int = 1) -> "WeightEnumerator":
        return cls([0] * w + [count])

    @classmethod
    def binomial(cls, n: int) -> "WeightEnumerator":
        """(1 + X)^n, the enumerator of the full space."""

        return cls([comb(n, w) for w in range(n + 1)])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""

        return len(self.coeffs) - 1

    def coeff(self, w: int) -> int:
        if 0 <= w < len(self.coeffs):
            return self.coeffs[w]
        return 0

    def items(self) -> Iterable[tuple[int, int]]:
        """Nonzero (weight, count) pairs in increasing weight order."""

        return ((w, c) for w, c in enumerate(self.coeffs) if c)

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def __add__(self, other: "WeightEnumerator") -> "WeightEnumerator":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for w, c in enumerate(b):
            out[w] += c
        return WeightEnumerator(out)

    def __mul__(self, other: "WeightEnumerator") -> "WeightEnumerator":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return WeightEnumerator()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return WeightEnumerator(out)

    def scale(self, factor: int) -> "WeightEnumerator":
        return WeightEnumerator([factor * c for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightEnumerator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "WeightEnumerator(0)"
        terms = " + ".join(
            f"{c}*X^{w}" if w else str(c) for w, c in self.items()
        )
        return f"WeightEnumerator({terms})"

    def to_pairs(self) -> list[list]:
        """Serialization form: [[weight, decimal-string count], ...]."""

        return [[w, str(c)] for w, c in self.items()]


def macwilliams(a: WeightEnumerator, n: int, k: int) -> WeightEnumerator:
    """Weight enumerator of the dual of an (n, k) code with enumerator ``a``.

    Computes 2^{-k} * sum_w A_w (1-X)^w (1+X)^{n-w} exactly, as one big int:
    the sum is evaluated at X = B = 2^W by Horner's rule in w, where a factor
    1 - B or 1 + B is a shift and a subtraction or addition.  Before the
    division, |coefficient of X^j| <= sum_w |A_w| C(n, j) < 2^{W-1} for
    W >= n + bits(sum_w |A_w|) + 1 (n + k + 2 for a code), so adding 2^{W-1}
    to every slot makes each slot non-negative and the slots decode without
    carries, whatever the signs.  Every coefficient must come out
    non-negative and divisible by 2^k; a failure means ``a`` was not the
    enumerator of a linear code.
    """

    if a.degree > n:
        raise ValueError("enumerator degree exceeds the block length")
    if a.eval_at_one() != 1 << k:
        raise ValueError(
            f"enumerator sums to {a.eval_at_one()}, expected 2^{k} codewords"
        )
    bits = n + sum(abs(c) for c in a.coeffs).bit_length() + 1
    width = -(-bits // 8) * 8
    # h = sum_{w >= j} A_w (1-B)^{w-j} (1+B)^{n-w} for j = n, n-1, ..., 0
    h = 0
    plus = 1  # (1+B)^{n-j}
    for j in range(n, -1, -1):
        h = h - (h << width) + a.coeff(j) * plus
        plus += plus << width
    half = 1 << width - 1
    bias = half * (((1 << (n + 1) * width) - 1) // ((1 << width) - 1))
    step = width // 8
    raw = (h + bias).to_bytes((n + 1) * step, "little")
    acc = [int.from_bytes(raw[i : i + step], "little") - half for i in range(0, len(raw), step)]
    scale = 1 << k
    out = []
    for w, c in enumerate(acc):
        if c < 0 or c % scale:
            raise ValueError(
                f"coefficient of X^{w} is {c}, not a non-negative multiple of 2^{k}; "
                "input was not a linear-code weight enumerator"
            )
        out.append(c // scale)
    return WeightEnumerator(out)
