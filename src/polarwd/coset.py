"""Recursive weight enumerators of polar cosets and of affine sets of them.

A coset fixes the first L information bits u_0..u_{L-1} (its prefix) and lets
the rest run free.  Prefixes are ints with bit i = u_i, so equal ints of
different lengths are different cosets and every call carries the length.

The recursion sums the enumerators of an affine set of prefixes
offset + span(basis) at once.  At length n an odd-length set first takes the
next bit as one more free basis vector.  An even-length prefix maps linearly
onto the half-length prefixes (even xor odd bits, odd bits) of the two
halves of the codeword, whose weights add.  So the image of the set is an
affine set of prefix pairs (a, b).  With K_v = {a : (a, 0) in its span} and
K_w = {b : (0, b) in its span}, the set is a disjoint union of 2^m boxes
(a_t + K_v) x (b_t + K_w), where m = dim - dim K_v - dim K_w counts the
"mixed" dimensions.  The sum at length n is therefore

    sum over t of  sum(a_t + K_v) * sum(b_t + K_w),

2^m products of half-length affine sums.  A single coset is the dimension-0
case, and the base case at n = 1 is 1 for u_0 = 0, X for u_0 = 1.

The split of the set depends on (length, basis) only, not on the offset, so
each such pair is split once: its plan (half length, byte count, K_v, K_w,
mixed generators) is kept in the cache, and a step only splits and reduces
the offset before walking the boxes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .wef import WeightEnumerator

# (n, (length, offset, basis)): the affine set offset + span(basis) of
# length-bit prefixes at block length n, basis in reduced row echelon form
# and offset reduced by it, so every set has exactly one key.
CacheKey = tuple[int, tuple[int, int, tuple[int, ...]]]

# (length, basis) -> (half, nbytes, K_v, K_w, mixed): how ``_step`` splits
# every set with this length and basis, whatever its offset.
Plan = tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]


class CosetCache:
    """Bounded memo tables: the enumerator sums of sub-coset sets, and the
    split plans of ``_step`` in ``plans``.

    ``max_entries`` caps each of the two tables, so a full cache holds up to
    twice that many entries.  Each table stops growing silently at the cap;
    entries are never mutated after insertion.  ``get``/``put`` serve the
    sums only; the recursion reads and fills ``plans`` directly.
    """

    def __init__(self, max_entries: int = 1 << 20):
        self.max_entries = max_entries
        self._table: dict[CacheKey, WeightEnumerator] = {}
        self.plans: dict[tuple[int, tuple[int, ...]], Plan] = {}

    def get(self, key: CacheKey) -> Optional[WeightEnumerator]:
        return self._table.get(key)

    def put(self, key: CacheKey, value: WeightEnumerator) -> None:
        if len(self._table) < self.max_entries:
            self._table.setdefault(key, value)

    def __len__(self) -> int:
        return len(self._table)


def _nibble(byte: int, odd: bool) -> int:
    """Bit j is b_{2j+1} (odd) or b_{2j} xor b_{2j+1} of ``byte``, j < 4."""

    return sum(((byte >> 2 * j + 1 ^ (0 if odd else byte >> 2 * j)) & 1) << j for j in range(4))


# translation tables from a prefix byte to the nibble of one half, in the
# low (even byte) or high (odd byte) nibble of the half's byte
_XOR_LO = bytes(_nibble(b, False) for b in range(256))
_XOR_HI = bytes(_nibble(b, False) << 4 for b in range(256))
_ODD_LO = bytes(_nibble(b, True) for b in range(256))
_ODD_HI = bytes(_nibble(b, True) << 4 for b in range(256))


def _split(prefix: int, nbytes: int) -> tuple[int, int]:
    """(even xor odd, odd) halves of an even-length prefix of <= 8 * nbytes bits."""

    raw = prefix.to_bytes(nbytes, "little")
    even, odd = raw[0::2], raw[1::2]
    xored = int.from_bytes(even.translate(_XOR_LO), "little") | int.from_bytes(
        odd.translate(_XOR_HI), "little"
    )
    odds = int.from_bytes(even.translate(_ODD_LO), "little") | int.from_bytes(
        odd.translate(_ODD_HI), "little"
    )
    return xored, odds


def _rref(vectors: Iterable[int]) -> list[int]:
    """Reduced row echelon basis of the span of ``vectors``, pivots (the top
    bits) descending; every pivot bit is clear in every other row."""

    rows: list[int] = []
    for x in vectors:
        for r in rows:
            x = min(x, x ^ r)
        if x:
            pivot = 1 << x.bit_length() - 1
            rows = [r ^ x if r & pivot else r for r in rows]
            rows.append(x)
            rows.sort(reverse=True)
    return rows


def _reduce(x: int, rows: Sequence[int]) -> int:
    """The representative of x + span(rows) with every pivot bit clear."""

    for r in rows:
        x = min(x, x ^ r)
    return x


def _plan(length: int, basis: tuple[int, ...]) -> Plan:
    """Split of the sets x + span(basis) of ``length``-bit prefixes into
    half-length kernels and mixed generators."""

    half = (length + 1) // 2
    nbytes = (2 * half + 7) // 8
    low = (1 << half) - 1
    # each vector as b << half | a; at odd length the next bit runs free,
    # one more vector with the top bit set in both halves
    vectors = [vb << half | va for va, vb in (_split(x, nbytes) for x in basis)]
    if length % 2:
        vectors.append(1 << 2 * half - 1 | 1 << half - 1)
    # reduction on the b-side pivots first leaves the rows with b = 0, which
    # span K_v
    rows = _rref(vectors)
    k_v = tuple(r for r in rows if r <= low)
    # swap the halves of the other rows: their a-parts are reduced by K_v, so
    # rows left with a = 0 span K_w and the rest are the mixed generators
    rows = _rref((r & low) << half | r >> half for r in rows if r > low)
    k_w = tuple(r for r in rows if r <= low)
    mixed = tuple((r >> half, r & low) for r in rows if r > low)
    return half, nbytes, k_v, k_w, mixed


def _sum(
    n: int, length: int, offset: int, basis: tuple[int, ...], cache: CosetCache
) -> WeightEnumerator:
    """Memoised ``_step``; ``basis`` and ``offset`` must be canonical."""

    if n == 1:
        return _step(n, length, offset, basis, cache)
    key = (n, (length, offset, basis))
    result = cache.get(key)
    if result is None:
        result = _step(n, length, offset, basis, cache)
        cache.put(key, result)
    return result


def _step(
    n: int, length: int, offset: int, basis: tuple[int, ...], cache: CosetCache
) -> WeightEnumerator:
    """One recursion step: the sum at length n from half-length sums."""

    if n == 1:
        if length == 0 or basis:
            return WeightEnumerator([1, 1])
        return WeightEnumerator.x() if offset else WeightEnumerator.one()
    plan = cache.plans.get((length, basis))
    if plan is None:
        plan = _plan(length, basis)
        if len(cache.plans) < cache.max_entries:
            cache.plans[length, basis] = plan
    half, nbytes, k_v, k_w, mixed = plan
    a, b = _split(offset, nbytes)
    a = _reduce(a, k_v)
    b = _reduce(b, k_w)
    acc = _sum(n // 2, half, a, k_v, cache) * _sum(n // 2, half, b, k_w, cache)
    # Gray-code walk over the 2^mixed boxes: one generator flips per step
    for t in range(1, 1 << len(mixed)):
        da, db = mixed[(t & -t).bit_length() - 1]
        a ^= da
        b ^= db
        acc = acc + _sum(n // 2, half, a, k_v, cache) * _sum(n // 2, half, b, k_w, cache)
    return acc


def _check_length(n: int, length: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"block length {n} is not a power of two")
    if not 0 <= length <= n:
        raise ValueError(f"prefix length {length} out of range for block length {n}")


def affine_sum(
    n: int,
    length: int,
    offset: int,
    basis: Sequence[int] = (),
    cache: Optional[CosetCache] = None,
) -> WeightEnumerator:
    """Sum of the coset enumerators over the prefix set offset + span(basis).

    Prefixes are ``length``-bit ints with bit i = u_i; the set counts each
    prefix once, so dependent basis vectors are harmless.  Only sums at block
    lengths below n go into ``cache`` (a private one when None): the engine
    never asks for the same full-length set twice.
    """

    _check_length(n, length)
    if any(x < 0 or x >> length for x in (offset, *basis)):
        raise ValueError(f"prefix set has vectors wider than {length} bits")
    if cache is None:
        cache = CosetCache()
    rows = tuple(_rref(basis))
    return _step(n, length, _reduce(offset, rows), rows, cache)


def calc_a(
    n: int,
    prefix: Sequence[int],
    cache: Optional[CosetCache] = None,
) -> tuple[WeightEnumerator, WeightEnumerator]:
    """Enumerator pair of the two cosets extending ``prefix`` with 0 and with 1.

    The single-coset case of ``affine_sum``: each returned polynomial sums to
    2^{n-1-len(prefix)}.  Prefix entries must be 0 or 1 (bools included).
    """

    if any(b not in (0, 1) for b in prefix):
        raise ValueError(f"prefix entries must be 0 or 1, got {list(prefix)!r}")
    length = len(prefix)
    _check_length(n, length + 1)
    p = sum(1 << i for i, b in enumerate(prefix) if b)
    if cache is None:
        cache = CosetCache()
    return (
        _step(n, length + 1, p, (), cache),
        _step(n, length + 1, p | 1 << length, (), cache),
    )
