"""The polar transform: the bit-reversal permutation and the encoder u -> u G_n.

G_n is the bit-reversal permutation times the m-th Kronecker power of
[[1,0],[1,1]]; it is an involution over GF(2).  Row i is the evaluation
vector of ``Monomial.from_row_index(i, m)``.
"""

from __future__ import annotations

from typing import Iterable

MATRIX_GUARD_M = 12


def bit_reversal_permutation(m: int) -> list[int]:
    """Permutation sending i to the integer with i's m-bit expansion reversed."""

    if m < 0:
        raise ValueError("m must be non-negative")
    return [int(format(i, f"0{m}b")[::-1], 2) for i in range(1 << m)]


def encode(words: Iterable[int], m: int) -> list[int]:
    """u G_n for each n-bit word u, bit i its position i: u permuted by bit
    reversal, then one butterfly per Kronecker factor."""

    if m < 0:
        raise ValueError("m must be non-negative")
    if m > MATRIX_GUARD_M:
        raise ValueError(f"refusing the transform for m={m} > {MATRIX_GUARD_M}")
    n = 1 << m
    perm = bit_reversal_permutation(m)
    # M_t: the positions with bit t set
    spans = [1 << t for t in range(m)]
    masks = [((1 << n) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1 << s) for s in spans]
    out = []
    for u in words:
        bits = format(u, f"0{n}b")  # reversal commutes with reading from the top
        x = int("".join([bits[p] for p in perm]), 2)
        for s, mask in zip(spans, masks):
            x ^= (x & mask) >> s
        out.append(x)
    return out
