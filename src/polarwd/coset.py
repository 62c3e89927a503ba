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

2^m terms, each a product of two half-length affine sums.  A single coset is
the dimension-0 case, and the base case at n = 1 is 1 for u_0 = 0, X for
u_0 = 1.

The split of the set depends on (length, basis) only, not on the offset, so
each such pair is split once: its plan (half length, byte count, K_v, K_w,
mixed generators) is kept in the cache, and a step only splits and reduces
the offset before walking the boxes.

The sums take few distinct values: the automorphisms that let one coset
stand for a whole orbit act at every level too, so many sets share one
enumerator (on a PAC(64) code, 33,940 memoised sets have 27 distinct sums).
So the recursion is hash-consed.  The cache stores each distinct sum once
and hands out a small-int id for it.  A step walks its boxes, counts each
distinct (left id, right id) pair, and adds count x product once per pair;
products are memoised per id pair, and the whole pair count of a step
(its "mix") is memoised to the id of its sum, so a step that repeats an
earlier mix does no arithmetic at all.  A value that finds the value table
full stands for itself instead of an id, so results stay exact whatever the
caps.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from .wef import WeightEnumerator

# (n, (length, offset, basis)): the affine set offset + span(basis) of
# length-bit prefixes at block length n, basis in reduced row echelon form
# and offset reduced by it, so every set has exactly one key.
CacheKey = tuple[int, tuple[int, int, tuple[int, ...]]]

# (length, basis) -> (half, nbytes, K_v, K_w, mixed): how ``_step`` splits
# every set with this length and basis, whatever its offset.
Plan = tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]

# A sum as the recursion passes it around: the id of its stored value, or
# the enumerator itself when the value table was full.  Id 0 is falsy, so
# test handles with ``is None``.
Handle = Union[int, WeightEnumerator]


class CosetCache:
    """Bounded memo tables of the coset recursion, which keeps all its state
    here and none at module level.

    - the sum table (``get``/``put``): set key -> handle of its sum;
    - the value table: each distinct sum polynomial once, ``values[id]``;
    - ``plans``: (length, basis) -> split plan of ``_step``;
    - ``products``: (left id, right id) -> product of the two values;
    - ``mixes``: a step's distinct (left, right) pairs with their box counts
      -> handle of the step's sum.

    ``max_entries`` caps each of the five tables.  Each table stops growing
    silently at the cap and entries are never mutated after insertion.  A
    value refused by the full value table goes on as its own handle (an
    enumerator, compared by value), and a refused product or mix is
    recomputed when next needed, so a full table costs speed, never
    exactness.  ``len`` counts the sum table; the recursion reads and fills
    the other tables directly.
    """

    def __init__(self, max_entries: int = 1 << 20):
        self.max_entries = max_entries
        self._table: dict[CacheKey, Handle] = {}
        self.values: list[WeightEnumerator] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self.plans: dict[tuple[int, tuple[int, ...]], Plan] = {}
        self.products: dict[tuple[int, int], WeightEnumerator] = {}
        self.mixes: dict[frozenset[tuple[tuple[Handle, Handle], int]], Handle] = {}

    def get(self, key: CacheKey) -> Optional[Handle]:
        return self._table.get(key)

    def put(self, key: CacheKey, value: Handle) -> None:
        if len(self._table) < self.max_entries:
            self._table.setdefault(key, value)

    def intern(self, value: WeightEnumerator) -> Handle:
        """The id of ``value``'s stored copy; ``value`` itself when it is
        new and the value table is full."""

        coeffs = tuple(value.coeffs)
        vid = self._ids.get(coeffs)
        if vid is None:
            if len(self.values) >= self.max_entries:
                return value
            vid = self._ids[coeffs] = len(self.values)
            self.values.append(value)
        return vid

    def value(self, handle: Handle) -> WeightEnumerator:
        return self.values[handle] if type(handle) is int else handle

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
) -> Handle:
    """Memoised ``_step``; ``basis`` and ``offset`` must be canonical."""

    if n == 1:
        return _step(n, length, offset, basis, cache)
    key = (n, (length, offset, basis))
    result = cache.get(key)
    if result is None:
        result = _step(n, length, offset, basis, cache)
        cache.put(key, result)
    return result


def _product(left: Handle, right: Handle, cache: CosetCache) -> WeightEnumerator:
    """Product of two sums, memoised when both are stored values."""

    if type(left) is not int or type(right) is not int:
        return cache.value(left) * cache.value(right)
    pair = (left, right)
    result = cache.products.get(pair)
    if result is None:
        result = cache.values[left] * cache.values[right]
        if len(cache.products) < cache.max_entries:
            cache.products[pair] = result
    return result


def _step(
    n: int, length: int, offset: int, basis: tuple[int, ...], cache: CosetCache
) -> Handle:
    """One recursion step: the sum at length n from half-length sums."""

    if n == 1:
        if length == 0 or basis:
            return cache.intern(WeightEnumerator([1, 1]))
        return cache.intern(WeightEnumerator.x() if offset else WeightEnumerator.one())
    plan = cache.plans.get((length, basis))
    if plan is None:
        plan = _plan(length, basis)
        if len(cache.plans) < cache.max_entries:
            cache.plans[length, basis] = plan
    half, nbytes, k_v, k_w, mixed = plan
    a, b = _split(offset, nbytes)
    a = _reduce(a, k_v)
    b = _reduce(b, k_w)
    n //= 2
    pair = (_sum(n, half, a, k_v, cache), _sum(n, half, b, k_w, cache))
    counts = {pair: 1}
    # Gray-code walk over the 2^mixed boxes: one generator flips per step;
    # boxes whose two half-length sums are equal values are counted together
    for t in range(1, 1 << len(mixed)):
        da, db = mixed[(t & -t).bit_length() - 1]
        a ^= da
        b ^= db
        pair = (_sum(n, half, a, k_v, cache), _sum(n, half, b, k_w, cache))
        counts[pair] = counts.get(pair, 0) + 1
    # steps whose boxes count the same pairs have the same sum
    mix = frozenset(counts.items())
    result = cache.mixes.get(mix)
    if result is None:
        # one product per distinct pair, times the boxes that have it
        acc = None
        for (left, right), count in counts.items():
            term = _product(left, right, cache)
            if count > 1:
                term = term.scale(count)
            acc = term if acc is None else acc + term
        result = cache.intern(acc)
        if len(cache.mixes) < cache.max_entries:
            cache.mixes[mix] = result
    return result


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
    prefix once, so dependent basis vectors are harmless.  Only sets at block
    lengths below n get a sum-table entry in ``cache`` (a private one when
    None): the engine never asks for the same full-length set twice.
    """

    _check_length(n, length)
    if any(x < 0 or x >> length for x in (offset, *basis)):
        raise ValueError(f"prefix set has vectors wider than {length} bits")
    if cache is None:
        cache = CosetCache()
    rows = tuple(_rref(basis))
    return cache.value(_step(n, length, _reduce(offset, rows), rows, cache))


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
        cache.value(_step(n, length + 1, p, (), cache)),
        cache.value(_step(n, length + 1, p | 1 << length, (), cache)),
    )
