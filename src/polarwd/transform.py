"""The polar transform: the bit-reversal permutation and the transform matrix.

The transform matrix is the bit-reversal permutation times the m-th Kronecker
power of [[1,0],[1,1]]; it is an involution over GF(2).  Row i is the
evaluation vector of ``Monomial.from_row_index(i, m)``.
"""

from __future__ import annotations

import numpy as np

MATRIX_GUARD_M = 12


def bit_reversal_permutation(m: int) -> list[int]:
    """Permutation sending i to the integer with i's m-bit expansion reversed."""

    if m < 0:
        raise ValueError("m must be non-negative")
    perm = []
    for i in range(1 << m):
        r = 0
        for b in range(m):
            r |= (i >> b & 1) << (m - 1 - b)
        perm.append(r)
    return perm


def generator_matrix(m: int) -> np.ndarray:
    """The full 2^m x 2^m transform matrix (test and oracle use only)."""

    if m < 0:
        raise ValueError("m must be non-negative")
    if m > MATRIX_GUARD_M:
        raise ValueError(f"refusing to materialize the matrix for m={m} > {MATRIX_GUARD_M}")
    k2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    kron = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        kron = np.kron(k2, kron)
    perm = bit_reversal_permutation(m)
    return kron[perm, :]
