"""Brute-force ground truth: enumerate codewords or coset members and tally weights.

Everything here is deliberately straightforward; the recursive engine is
validated against these enumerations, never the other way around.  Words
are ints, bit i for position i, visited in Gray-code order, one xor each.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from .codespec import CodeSpec
from .transform import encode
from .wef import WeightEnumerator

DEFAULT_K_GUARD = 24
DEFAULT_N_GUARD = 4096


class GuardExceeded(RuntimeError):
    """Enumeration would exceed the configured brute-force budget."""


def message_map(spec: CodeSpec) -> tuple[list[int], int]:
    """Affine map from the k free bits to the information vector u.

    Returns (rows, t): u is t xor the rows of the message's set bits.  A
    frozen bit of each is the parity of its earlier support bits (t adds
    the constant).
    """

    rows: list[int] = []
    t = 0
    for i, st in enumerate(spec.statuses):
        if st is None:
            rows.append(1 << i)
        else:
            support = sum(1 << j for j in st.support)
            rows = [r | ((r & support).bit_count() & 1) << i for r in rows]
            t |= ((t & support).bit_count() & 1 ^ st.constant) << i
    return rows, t


def _gray_words(rows: Sequence[int], offset: int) -> Iterator[int]:
    """offset xor each of the 2^k sums of ``rows``, in Gray-code order."""

    word = offset
    yield word
    for step in range(1, 1 << len(rows)):
        word ^= rows[(step & -step).bit_length() - 1]
        yield word


def _tally(words: Iterator[int], n: int) -> WeightEnumerator:
    counts = Counter(map(int.bit_count, words))
    return WeightEnumerator([counts[w] for w in range(n + 1)])


def _codeword_span(spec: CodeSpec) -> tuple[list[int], int]:
    """The code's generator rows and offset (t G_n) as words."""

    rows, t = message_map(spec)
    *rows, offset = encode(rows + [t], spec.m)
    return rows, offset


def brute_force_wef(
    spec: CodeSpec,
    k_guard: int = DEFAULT_K_GUARD,
    n_guard: int = DEFAULT_N_GUARD,
) -> WeightEnumerator:
    """Exact weight enumerator by enumerating all 2^k codewords."""

    if spec.k > k_guard:
        raise GuardExceeded(f"dimension {spec.k} exceeds brute-force guard {k_guard}")
    if spec.n > n_guard:
        raise GuardExceeded(f"length {spec.n} exceeds brute-force guard {n_guard}")
    return _tally(_gray_words(*_codeword_span(spec)), spec.n)


def brute_force_coset_wef(
    n: int,
    prefix: Sequence[int],
    last_bit: int,
    guard: int = DEFAULT_K_GUARD,
) -> WeightEnumerator:
    """Exact coset enumerator: fix prefix and last bit, run the suffix free."""

    if n < 1 or n & (n - 1):
        raise ValueError(f"block length {n} is not a power of two")
    i = len(prefix)
    free = n - 1 - i
    if free < 0:
        raise ValueError("prefix too long")
    if free > guard:
        raise GuardExceeded(f"{free} free suffix bits exceed guard {guard}")
    fixed = sum(1 << j for j, b in enumerate([*prefix, last_bit]) if b)
    offset, *rows = encode([fixed, *(1 << j for j in range(i + 1, n))], n.bit_length() - 1)
    return _tally(_gray_words(rows, offset), n)


def codewords(spec: CodeSpec, k_guard: int = DEFAULT_K_GUARD) -> set[tuple[int, ...]]:
    """The full codeword set as bit tuples (round-trip and duality tests)."""

    if spec.k > k_guard:
        raise GuardExceeded(f"dimension {spec.k} exceeds brute-force guard {k_guard}")
    n = spec.n
    return {
        tuple(map(int, format(w, f"0{n}b")[::-1]))
        for w in _gray_words(*_codeword_span(spec))
    }
