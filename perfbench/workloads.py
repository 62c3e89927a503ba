"""Seeded workload generators: seed -> code specs and timed units.

Every function here is pure (the same arguments give the same specs) and
uses only the public polarwd API, looked up through the package at call time
so that a traced run sees these calls too.  The amount of work depends only
on ``seconds``; the seed chooses which work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import polarwd as pw

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "codemix_pool.json"

# The reference (128,64) polar code (the same unfrozen set as the test suite).
POLAR128_UNFROZEN = (
    27, 29, 30, 31, 39, 43, 45, 46, 47, 51, 53, 54, 55, 57, 58, 59, 60, 61,
    62, 63, 71, 75, 77, 78, 79, 83, 85, 86, 87, 89, 90, 91, 92, 93, 94, 95,
    99, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114,
    115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127,
)

# The five largest orbits (u_27, u_29, u_30, u_45, u_46; gamma = 23) hold
# 2^23 cosets each, about 69 % of the 60,752,896 cosets of the full run
# together and 14 % each.  The slice is taken from one fixed orbit, u_27, so
# that seeds stay comparable: on the reference machine 40 units of two
# slices of each ran at 8.7k (u_27), 8.3-8.6k (u_29), 5.1-5.3k (u_30),
# 9.5-11.4k (u_45) and 9.6-10.9k (u_46) reference cosets/s.  A projection of
# the full run from u_27 alone is therefore an extrapolation, not a share.
SLICE_ROW = 27
SLICE_UNIT_BITS = 10  # 1,024 cosets per unit
SLICE_PIECE_BITS = 7  # the slice holds 128 units; a run takes the first few
SLICE_THREADS = 2

# PAC codes: the RM(2,6) rate profile under convolutional precoding, with
# the taps family starting at Arikan's 1011011.  Every degree-6 taps keeps
# k = 22, gamma = 15 and nearly the same products, but prefix construction
# scales with the constraint supports (from 152 to 632 bits summed over the
# code) and the cache ends at 37,834 to 66,634 entries.  These six are the
# taps within 10 % of 1011011's 592 support bits and 2.5 % of its 65,098
# entries, so the seed changes the code, not its cost.
PAC_TAPS_FAMILY = ("1011011", "1101001", "1110011", "1110001", "1011001", "1101011")

PAC_PIECE_BITS = 5  # 32 units of 1,024 cosets per code

# Units of fixed work per second of --seconds on the reference machine (a
# 2-core Xeon VM running the seed commit): a faster program finishes the same
# work sooner.
SLICE_UNITS_PER_S = 6
PAC_SECONDS_PER_CODE = 3.5  # from --seconds 20 on, all six codes in seeded order
MIX_SECONDS_PER_PASS = 1.1

WORKLOADS = ("polar128-slice", "pac64-direct", "code-mix")


@dataclass(frozen=True)
class Unit:
    """One timed call: a direct-route spec, or one code of the CLI mix."""

    name: str
    group: int  # units of one group share a CosetCache (slice, PAC code)
    spec: pw.CodeSpec
    spec_json: Optional[dict] = None  # code-mix: what the CLI reads


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    units: tuple[Unit, ...]
    threads: int
    groups: tuple[pw.CodeSpec, ...]  # the full spec behind each group


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def lta_orbits(spec: pw.CodeSpec) -> list[tuple[Optional[int], pw.CodeSpec, int]]:
    """(row f, orbit spec, multiplier) triples whose scaled direct enumerators
    sum to the code's enumerator, peeled in the same order as ``wef_lta``.
    The last triple is the remaining all-zero coset, with row None."""

    if not spec.frozen:
        raise ValueError("a rate-1 code has no orbit decomposition")
    orbits = []
    current = spec
    while True:
        prof = pw.profile(current)
        if prof.gamma == 0:
            orbits.append((None, current, 1))
            return orbits
        f_idx = min(current.unfrozen)
        f_mono = pw.Monomial.from_row_index(f_idx, current.m)
        shift_set = [
            i
            for i in prof.red
            if i != f_idx
            and pw.single_shift_le(pw.Monomial.from_row_index(i, current.m), f_mono)
        ]
        orbit = current.with_frozen(f_idx, 1)
        for i in shift_set:
            orbit = orbit.with_frozen(i, 0)
        orbits.append((f_idx, orbit, 1 << len(shift_set)))
        current = current.with_frozen(f_idx, 0)


def pin_red_rows(spec: pw.CodeSpec, bits: int, value: int) -> pw.CodeSpec:
    """Freeze the first ``bits`` red rows to the bits of ``value``, most
    significant first: the direct-route cosets of the result are the
    contiguous assignment range [value << rest, (value + 1) << rest)."""

    red = pw.profile(spec).red
    if bits > len(red):
        raise ValueError(f"cannot pin {bits} of {len(red)} red rows")
    for j in range(bits):
        spec = spec.with_frozen(red[j], value >> (bits - 1 - j) & 1)
    return spec


def polar128_slice(seed: int, seconds: int) -> Workload:
    code = pw.from_unfrozen_set(7, POLAR128_UNFROZEN, label="polar(128,64)")
    orbit = next(o for row, o, _ in lta_orbits(code) if row == SLICE_ROW)
    gamma = pw.profile(orbit).gamma
    head_bits = gamma - SLICE_UNIT_BITS - SLICE_PIECE_BITS
    constant = rng_for("polar128-slice", seed).getrandbits(head_bits)
    slice_spec = pin_red_rows(orbit, head_bits, constant)
    count = min(1 << SLICE_PIECE_BITS, max(1, round(seconds * SLICE_UNITS_PER_S)))
    units = tuple(
        Unit(f"slice[{constant}][{i}]", 0, pin_red_rows(slice_spec, SLICE_PIECE_BITS, i))
        for i in range(count)
    )
    return Workload("polar128-slice", seed, units, SLICE_THREADS, (slice_spec,))


def pac_code(taps: str) -> pw.CodeSpec:
    profile_rows = pw.from_rm(2, 6).unfrozen
    return pw.pac_spec(6, profile_rows, [int(t) for t in taps])


def pac64_direct(seed: int, seconds: int) -> Workload:
    count = min(len(PAC_TAPS_FAMILY), max(1, round(seconds / PAC_SECONDS_PER_CODE)))
    family = rng_for("pac64-direct", seed).sample(PAC_TAPS_FAMILY, count)
    codes = tuple(pac_code(taps) for taps in family)
    units = tuple(
        Unit(f"pac[{taps}][{i}]", g, pin_red_rows(code, PAC_PIECE_BITS, i))
        for g, (taps, code) in enumerate(zip(family, codes))
        for i in range(1 << PAC_PIECE_BITS)
    )
    return Workload("pac64-direct", seed, units, 1, codes)


def load_pool() -> list[list[dict]]:
    return json.loads(POOL_FILE.read_text())["strata"]


def code_mix(seed: int, seconds: int) -> Workload:
    """One code from each cost stratum, then the whole mix repeated."""

    rng = rng_for("code-mix", seed)
    chosen = [rng.choice(stratum) for stratum in load_pool()]
    codes = tuple(pw.spec_from_json(obj) for obj in chosen)
    passes = max(1, round(seconds / MIX_SECONDS_PER_PASS))
    units = tuple(
        Unit(f"mix[{g}]", g, spec, obj)
        for _ in range(passes)
        for g, (obj, spec) in enumerate(zip(chosen, codes))
    )
    return Workload("code-mix", seed, units, 1, codes)


def build(workload: str, seed: int, seconds: int) -> Workload:
    if workload == "polar128-slice":
        return polar128_slice(seed, seconds)
    if workload == "pac64-direct":
        return pac64_direct(seed, seconds)
    if workload == "code-mix":
        return code_mix(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")
