"""Recursive weight enumerators of polar cosets.

A coset fixes the first i+1 information bits and lets the remaining n-1-i run
free.  Its enumerator pair (last bit 0, last bit 1) satisfies a two-way
recursion on half-length cosets whose prefixes are the even-xor-odd and odd
subsequences of the original prefix; the base case at n=1 is (1, X).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .wef import WeightEnumerator

WefPair = tuple[WeightEnumerator, WeightEnumerator]


class CosetCache:
    """Bounded memo table for sub-coset enumerator pairs, keyed by (n, prefix).

    Insertion stops silently once the size cap is reached; entries are never
    mutated after insertion, so concurrent readers under the GIL are safe.
    """

    def __init__(self, max_entries: int = 1 << 20):
        self.max_entries = max_entries
        self._table: dict[tuple[int, tuple[int, ...]], WefPair] = {}

    def get(self, key: tuple[int, tuple[int, ...]]) -> Optional[WefPair]:
        return self._table.get(key)

    def put(self, key: tuple[int, tuple[int, ...]], value: WefPair) -> None:
        if len(self._table) < self.max_entries:
            self._table.setdefault(key, value)

    def __len__(self) -> int:
        return len(self._table)


def even_odd_transform(prefix: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(even xor odd, odd) subsequences, the prefix arguments of the recursion.

    For an odd-length prefix the even part is one longer; the trailing even
    element is never consumed here because the recursion strips the last bit
    before splitting.
    """

    even = prefix[0::2]
    odd = prefix[1::2]
    xored = tuple(e ^ o for e, o in zip(even, odd))
    return xored, tuple(odd)


def calc_a(
    n: int,
    prefix: Sequence[int],
    cache: Optional[CosetCache] = None,
) -> WefPair:
    """Enumerator pair of the two cosets extending ``prefix`` with 0 and with 1.

    Implements the coset recursion directly: even positions combine the two
    half-length pairs cross-wise, odd positions select products according to
    the stripped last prefix bit.  Each returned polynomial sums to
    2^{n-1-len(prefix)}.  Only the half-length and shorter sub-cosets go into
    ``cache``: the engine never asks for the same full-length pair twice.
    """

    if n < 1 or n & (n - 1):
        raise ValueError(f"block length {n} is not a power of two")
    p = tuple(int(b) & 1 for b in prefix)
    if len(p) >= n:
        raise ValueError("prefix must be shorter than the block length")
    return _split(n, p, cache)


def _calc(n: int, prefix: tuple[int, ...], cache: Optional[CosetCache]) -> WefPair:
    if cache is None or n == 1:
        return _split(n, prefix, cache)
    key = (n, prefix)
    result = cache.get(key)
    if result is None:
        result = _split(n, prefix, cache)
        cache.put(key, result)
    return result


def _split(n: int, prefix: tuple[int, ...], cache: Optional[CosetCache]) -> WefPair:
    """One recursion step: the pair at length n from two half-length pairs."""

    if n == 1:
        return WeightEnumerator.one(), WeightEnumerator.x()
    if len(prefix) % 2 == 0:
        xored, odd = even_odd_transform(prefix)
        f0, f1 = _calc(n // 2, xored, cache)
        g0, g1 = _calc(n // 2, odd, cache)
        result = (f0 * g0 + f1 * g1, f0 * g1 + f1 * g0)
    else:
        last = prefix[-1]
        xored, odd = even_odd_transform(prefix[:-1])
        f0, f1 = _calc(n // 2, xored, cache)
        g0, g1 = _calc(n // 2, odd, cache)
        # at odd positions the pair is (f_{a^0} g_0, f_{a^1} g_1) where a is
        # the stripped last prefix bit
        if last == 0:
            result = (f0 * g0, f1 * g1)
        else:
            result = (f1 * g0, f0 * g1)
    return result
