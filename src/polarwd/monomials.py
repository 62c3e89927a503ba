"""Squarefree monomials over GF(2), their partial orders, and mixing-factor extremals.

A monomial is a subset of the variables {x_0, ..., x_{m-1}}, stored as a
bitmask.  Row r of the polar transform matrix is the evaluation vector of the
monomial whose variable set is exactly the *zero* bits of r, so the row index
of a monomial is ``(2^m - 1) ^ mask``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence


class Order(Enum):
    """Outcome of comparing two monomials under the divisibility-style order."""

    EQUAL = "equal"
    F_PRECEDES_G = "f_precedes_g"
    G_PRECEDES_F = "g_precedes_f"
    INCOMPARABLE = "incomparable"


_TOKEN = re.compile(r"x(\d+)|\*|\s+")


@dataclass(frozen=True)
class Monomial:
    """A squarefree monomial in m variables; ``mask`` bit i set means x_i present."""

    mask: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("variable count must be non-negative")
        if self.mask < 0 or self.mask >> self.m:
            raise ValueError(f"mask {self.mask:#x} out of range for m={self.m}")

    @classmethod
    def from_vars(cls, variables: Iterable[int], m: int) -> "Monomial":
        mask = 0
        for v in variables:
            if not 0 <= v < m:
                raise ValueError(f"variable index {v} out of range for m={m}")
            mask |= 1 << v
        return cls(mask, m)

    @classmethod
    def one(cls, m: int) -> "Monomial":
        return cls(0, m)

    @classmethod
    def parse(cls, text: str, m: int) -> "Monomial":
        """Parse ``1``, ``x0``, ``x0*x3`` or ``x2x3`` (separator optional)."""

        s = text.strip()
        if s == "1":
            return cls.one(m)
        mask = 0
        pos = 0
        while pos < len(s):
            match = _TOKEN.match(s, pos)
            if match is None:
                raise ValueError(f"bad monomial {text!r}: unexpected character at position {pos}")
            if match.group(1) is not None:
                v = int(match.group(1))
                if v >= m:
                    raise ValueError(f"bad monomial {text!r}: variable x{v} out of range for m={m}")
                mask |= 1 << v
            pos = match.end()
        if mask == 0:
            raise ValueError(f"bad monomial {text!r}: no variables found")
        return cls(mask, m)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.m) if self.mask >> i & 1)

    @property
    def row_index(self) -> int:
        """Index of this monomial's row in the 2^m x 2^m polar transform matrix."""

        return ((1 << self.m) - 1) ^ self.mask

    @classmethod
    def from_row_index(cls, index: int, m: int) -> "Monomial":
        if not 0 <= index < (1 << m):
            raise ValueError(f"row index {index} out of range for m={m}")
        return cls(((1 << m) - 1) ^ index, m)

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "".join(f"x{i}" for i in self.vars)


def evaluate(f: Monomial, m: Optional[int] = None) -> list[int]:
    """Evaluation vector of ``f`` over all binary points, in the fixed row order.

    Position p carries the point b with b_i = 1 - (bit of p at weight 2^{m-1-i}),
    so f evaluates to 1 at p exactly when p has zeros at the mirrored positions
    of f's variables.  The result equals row ``f.row_index`` of the transform.
    """

    if m is None:
        m = f.m
    elif m != f.m:
        raise ValueError("ambient variable count mismatch")
    pmask = 0
    for i in f.vars:
        pmask |= 1 << (m - 1 - i)
    return [1 if (p & pmask) == 0 else 0 for p in range(1 << m)]


def _suffix_counts(mask: int, width: int) -> list[int]:
    """For each threshold x < width, the number of variables x_j with j >= x:
    f precedes g iff f's count is at most g's at every threshold."""

    return [(mask >> x).bit_count() for x in range(width)]


def compare(f: Monomial, g: Monomial) -> Order:
    """Decide the partial order between two monomials by the suffix-count rule.

    Only thresholds below the highest variable of either monomial can differ;
    if g's count is at least f's at each of them f precedes g, if at most g
    precedes f.  The counts of distinct monomials differ at some threshold.
    """

    if f.m != g.m:
        raise ValueError("monomials live in different ambient rings")
    if f.mask == g.mask:
        return Order.EQUAL
    width = (f.mask | g.mask).bit_length()
    diffs = [b - a for a, b in zip(_suffix_counts(f.mask, width), _suffix_counts(g.mask, width))]
    if min(diffs) >= 0:
        return Order.F_PRECEDES_G
    if max(diffs) <= 0:
        return Order.G_PRECEDES_F
    return Order.INCOMPARABLE


def precedes(f: Monomial, g: Monomial) -> bool:
    """True iff f is below-or-equal to g in the partial order."""

    return compare(f, g) in (Order.F_PRECEDES_G, Order.EQUAL)


def single_shift_le(f: Monomial, g: Monomial) -> bool:
    """True iff f is obtained from g by lowering one variable or deleting one.

    Either g = h*x_k and f = h*x_j with j < k, or f = h and g = h*x_k.
    """

    if f.m != g.m:
        raise ValueError("monomials live in different ambient rings")
    return f.mask in _predecessor_masks(g.mask)


def _predecessor_masks(mask: int) -> Iterator[int]:
    """Masks of the single-shift predecessors of ``mask``: for each variable
    k ascending, k deleted, then k lowered to each absent j < k ascending."""

    for k in range(mask.bit_length()):
        if mask >> k & 1:
            deleted = mask ^ 1 << k
            yield deleted
            for j in range(k):
                if not mask >> j & 1:
                    yield deleted | 1 << j


def _generators_present(mask: int, present: set[int]) -> bool:
    """Whether every deletion and every adjacent lowering (x_k to x_{k-1},
    x_{k-1} absent) of ``mask`` is in ``present``."""

    # the variables x_k, k >= 1, with x_{k-1} absent
    lowerable = mask & ~(mask << 1 | 1)
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        if mask ^ bit not in present:
            return False
        if bit & lowerable and mask ^ bit ^ bit >> 1 not in present:
            return False
    return True


def is_decreasing(
    monomials: Iterable[Monomial],
) -> tuple[bool, Optional[tuple[Monomial, Monomial]]]:
    """Check downward closure under the partial order.

    Only immediate single-shift predecessors are scanned; that suffices because
    any strict relation decomposes into a chain of single shifts.  Deletions
    and adjacent lowerings (x_k to x_{k-1}, x_{k-1} absent) already generate
    the order, so they are checked first and the full scan runs only on a
    set that fails them.  On failure returns a witness pair (missing
    predecessor, offending member): the first member, then its first
    immediate predecessor, that is missing.
    """

    members = list(monomials)
    present = {mono.mask for mono in members}
    if all(_generators_present(g.mask, present) for g in members):
        return True, None
    for g in members:
        for f in _predecessor_masks(g.mask):
            if f not in present:
                return False, (Monomial(f, g.m), g)
    return True, None


def _incomparable_above_counts(m: int) -> list[int]:
    """For each row index t, count rows above t incomparable with t.

    Each row's ``_suffix_counts`` turn every comparison into a componentwise
    vector domination, an AND of int bitsets (bit i for row i): per
    threshold x and count v, the rows counting at most, or at least, v at x.
    """

    n = 1 << m

    def rows(x: int, low: int, high: int) -> int:
        # row i counts the bits of n-1-i from x up; n-1-i is its string index
        runs = (("1" if low <= h.bit_count() <= high else "0") * (1 << x) for h in range(n >> x))
        return int("".join(runs), 2)

    at_most = [[rows(x, 0, v) for v in range(m + 1)] for x in range(m)]
    at_least = [[rows(x, v, m) for v in range(m + 1)] for x in range(m)]
    out = [0] * n
    for t in range(1, n):
        le = ge = (1 << t) - 1
        for x, v in enumerate(_suffix_counts((n - 1) ^ t, m)):
            le &= at_most[x][v]
            ge &= at_least[x][v]
        out[t] = t - (le | ge).bit_count()
    return out


def max_mixing_factor(m: int) -> tuple[int, list[int]]:
    """Largest mixing factor over all decreasing monomial codes of length 2^m.

    For each candidate last-frozen row tau, the extremal code unfreezes every
    row above tau incomparable with tau plus everything below tau; its mixing
    factor is the incomparable-above count.  Returns the maximum and all
    argmax row indices.
    """

    if m < 1:
        raise ValueError("m must be at least 1")
    counts = _incomparable_above_counts(m)
    best = max(counts)
    return best, [t for t, c in enumerate(counts) if c == best]


def max_mixing_factor_rate_half(m: int) -> int:
    """Mixing-factor upper bound when the code rate is capped at 1/2.

    With tau the last frozen row there are n-1-t unfrozen rows below it, so at
    most n/2 - (n-1-t) = t+1-n/2 unfrozen rows may sit above; the bound is the
    minimum of that cap (clamped at zero) and the unrestricted count.
    """

    if m < 1:
        raise ValueError("m must be at least 1")
    n = 1 << m
    counts = _incomparable_above_counts(m)
    return max(min(c, max(0, t + 1 - n // 2)) for t, c in enumerate(counts))
