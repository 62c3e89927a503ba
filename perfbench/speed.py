"""Machine-speed factor: a fixed pure-Python kernel timed between units.

On the 2-core VM this benchmark was built on, the same unit of work takes up
to 1.75x longer in slow phases that last 10-20 s, and a kernel that does
the same kind of work (big-integer polynomial products, tuple keys in a
dict, xors over frozensets) slows down with it.  On six runs of the same
PAC seed, the quartile spread of the summed unit times was 0.17 of the
median in measured seconds and 0.02 after scaling by a kernel of this mix;
over ten seeds per workload the scaled spreads stay at 0.03-0.06.  Timings
are therefore reported in reference seconds: measured seconds times
REFERENCE_KERNEL_S / (the kernel's time measured next to them).  The kernel
is the benchmark's own code, so no change to the program can move it.
"""

from __future__ import annotations

import time

# The kernel's time on the reference machine in its fast phase, so that
# reference seconds read like seconds of an unloaded run there.
REFERENCE_KERNEL_S = 600e-6

_A = [(7 ** (i + 20)) % (1 << 61) for i in range(40)]
_B = [(11 ** (i + 20)) % (1 << 61) for i in range(40)]
_BITS = tuple(i * 7 % 3 & 1 for i in range(80))
_SUPPORTS = [frozenset(range(0, 60, step)) for step in range(1, 9)]


def kernel() -> int:
    """Schoolbook product of two 40-term integer polynomials, memo-table
    style lookups with tuple keys, and xors over frozenset supports (as in
    FreezeConstraint.value)."""

    out = [0] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    table: dict = {}
    for i in range(300):
        key = (i & 15, _BITS[i % 40 : i % 40 + 24])
        table[key] = table.get(key, 0) + out[i % len(out)]
    parity = 0
    for _ in range(30):
        for support in _SUPPORTS:
            for j in support:
                parity ^= _BITS[j]
    return len(table) + parity


def sample(repeats: int = 3) -> float:
    """Fastest of a few kernel runs, in seconds."""

    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


def factors(samples: list[float]) -> list[float]:
    """Speed factor of each unit from the kernel samples taken just before
    and just after it (``samples`` has one more entry than there are units)."""

    return [
        REFERENCE_KERNEL_S / ((before + after) / 2)
        for before, after in zip(samples, samples[1:])
    ]
