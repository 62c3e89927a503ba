"""Brute-force ground truth: enumerate codewords or coset members and tally weights.

Everything here is deliberately straightforward; the recursive engine is
validated against these enumerations, never the other way around.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .codespec import CodeSpec
from .transform import generator_matrix
from .wef import WeightEnumerator

DEFAULT_K_GUARD = 24
DEFAULT_N_GUARD = 4096

_CHUNK_BITS = 16


class GuardExceeded(RuntimeError):
    """Enumeration would exceed the configured brute-force budget."""


def message_map(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Affine map from the k free bits to the information vector u.

    Returns (M, t) with u = msg @ M xor t; frozen positions resolve their
    constraints causally, so each column is a xor of earlier columns.
    """

    n = spec.n
    k = spec.k
    m_cols = np.zeros((k, n), dtype=np.uint8)
    t = np.zeros(n, dtype=np.uint8)
    msg_idx = 0
    for i, st in enumerate(spec.statuses):
        if st is None:
            m_cols[msg_idx, i] = 1
            msg_idx += 1
        else:
            col = np.zeros(k, dtype=np.uint8)
            const = st.constant
            for j in st.support:
                col ^= m_cols[:, j]
                const ^= int(t[j])
            m_cols[:, i] = col
            t[i] = const
    return m_cols, t


def _message_chunks(k: int) -> Iterator[np.ndarray]:
    """All 2^k messages as uint8 bit arrays, in chunks to bound memory."""

    chunk_k = min(k, _CHUNK_BITS)
    base = np.zeros((1 << chunk_k, chunk_k), dtype=np.uint8)
    for b in range(chunk_k):
        base[:, b] = (np.arange(1 << chunk_k) >> b) & 1
    if k == chunk_k:
        yield base
        return
    for high in range(1 << (k - chunk_k)):
        high_bits = np.array(
            [(high >> b) & 1 for b in range(k - chunk_k)], dtype=np.uint8
        )
        chunk = np.empty((1 << chunk_k, k), dtype=np.uint8)
        chunk[:, :chunk_k] = base
        chunk[:, chunk_k:] = high_bits
        yield chunk


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
    m_cols, t = message_map(spec)
    gn = generator_matrix(spec.m)
    rows = (m_cols @ gn) % 2
    offset = (t @ gn) % 2
    counts = np.zeros(spec.n + 1, dtype=object)
    if spec.k == 0:
        counts[int(offset.sum())] = 1
        return WeightEnumerator(list(counts))
    for chunk in _message_chunks(spec.k):
        words = (chunk.astype(np.int64) @ rows + offset) % 2
        weights = words.sum(axis=1)
        tally = np.bincount(weights, minlength=spec.n + 1)
        counts += tally
    return WeightEnumerator([int(c) for c in counts])


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
    m = n.bit_length() - 1
    gn = generator_matrix(m)
    fixed = np.zeros(n, dtype=np.uint8)
    for j, b in enumerate(list(prefix) + [last_bit]):
        if b:
            fixed ^= gn[j]
    suffix_rows = gn[i + 1 :]
    counts = np.zeros(n + 1, dtype=object)
    if free == 0:
        counts[int(fixed.sum())] = 1
        return WeightEnumerator(list(counts))
    for chunk in _message_chunks(free):
        words = (chunk.astype(np.int64) @ suffix_rows + fixed) % 2
        tally = np.bincount(words.sum(axis=1), minlength=n + 1)
        counts += tally
    return WeightEnumerator([int(c) for c in counts])


def codewords(spec: CodeSpec, k_guard: int = DEFAULT_K_GUARD) -> set[tuple[int, ...]]:
    """The full codeword set as bit tuples (round-trip and duality tests)."""

    if spec.k > k_guard:
        raise GuardExceeded(f"dimension {spec.k} exceeds brute-force guard {k_guard}")
    m_cols, t = message_map(spec)
    gn = generator_matrix(spec.m)
    rows = (m_cols @ gn) % 2
    offset = (t @ gn) % 2
    out = set()
    for chunk in _message_chunks(spec.k):
        words = (chunk.astype(np.int64) @ rows + offset) % 2
        out.update(map(tuple, words.astype(int).tolist()))
    return out
