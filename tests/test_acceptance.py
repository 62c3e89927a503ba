"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 3 (the full (128,64) weight distribution)
takes about 1 s on a 2-vCPU machine and runs by default; ``pytest -m full128
-s`` runs it alone.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Optional

import pytest

from polarwd import (
    CosetCache,
    brute_force_wef,
    estimate_cost,
    from_rm,
    from_unfrozen_set,
    macwilliams,
    single_shift_le,
    wef_auto,
    wef_direct,
    wef_lta,
)
from polarwd.coset import calc_a
from polarwd.monomials import Monomial, precedes
from polarwd.oracle import brute_force_coset_wef

from conftest import HAMMING16_UNFROZEN, HAMMING16_WEF, POLAR128_UNFROZEN, POLAR128_WD


@contextmanager
def criterion(num: int, desc: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > limit_s:
        print(f"criterion {num} ({desc}): FAIL (took {elapsed:.1f}s > {limit_s:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded {limit_s:.0f}s: {elapsed:.1f}s")
    print(f"criterion {num} ({desc}): PASS ({elapsed:.2f}s)")


def cli(*argv: str, env: Optional[dict] = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "polarwd.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_1_largest_mixing_factors():
    expected = [0, 0, 1, 4, 11, 27, 68, 156, 339, 721]
    with criterion(1, "largest mixing factors m=1..10", 60):
        got = [
            int(cli("max-mixing-factor", "--m", str(m)).stdout)
            for m in range(1, 11)
        ]
        assert got == expected


def test_criterion_2_rate_half_mixing_factors():
    expected = [0, 0, 1, 2, 9, 18, 49, 98, 225, 450]
    with criterion(2, "rate-1/2 mixing-factor bounds m=1..10", 60):
        got = [
            int(cli("max-mixing-factor", "--m", str(m), "--rate-half").stdout)
            for m in range(1, 11)
        ]
        assert got == expected


@pytest.mark.full128
def test_criterion_3_full_128_64_weight_distribution(tmp_path, polar128_spec):
    with criterion(3, "(128,64) full weight distribution", 48 * 3600):
        path = tmp_path / "t3.json"
        path.write_text(json.dumps({"m": 7, "unfrozen": list(POLAR128_UNFROZEN)}))
        proc = cli("wef", "--spec", str(path), "--strategy", "lta")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["cosets_evaluated"] == "60752896"
        got = {w: int(c) for w, c in payload["wef"]}
        assert got == POLAR128_WD
        assert sum(got.values()) == 1 << 64


def _random_spec(rng: random.Random):
    from polarwd import CodeSpec, FreezeConstraint

    m = rng.choice([2, 3, 4, 5])
    n = 1 << m
    k = rng.randrange(0, min(16, n) + 1)
    unfrozen = set(rng.sample(range(n), k))
    spec = from_unfrozen_set(m, unfrozen)
    if rng.random() < 0.5:
        # turn some frozen positions into dynamic (affine) constraints
        statuses = list(spec.statuses)
        for i in spec.frozen:
            if i and rng.random() < 0.4:
                support = frozenset(j for j in range(i) if rng.random() < 0.3)
                statuses[i] = FreezeConstraint(i, support, rng.randrange(2))
        spec = CodeSpec(m, tuple(statuses))
    return spec


def test_criterion_4_oracle_equivalence_suite():
    with criterion(4, "200 randomized specs match the brute-force oracle", 300):
        rng = random.Random(20240824)
        checked = 0
        while checked < 200:
            spec = _random_spec(rng)
            from polarwd.codespec import profile

            if 1 << profile(spec).gamma > 4096:
                continue
            cache = CosetCache()
            expected = brute_force_wef(spec)
            assert wef_direct(spec, cache=cache) == expected, spec
            if spec.is_plain and spec.is_decreasing_code():
                assert wef_lta(spec, cache=cache) == expected, spec
            checked += 1


def test_criterion_5_coset_oracle_suite():
    with criterion(5, "coset recursion matches the coset oracle", 120):
        for n in (8, 16):
            cache = CosetCache()
            for length in range(7):
                for prefix in itertools.product((0, 1), repeat=length):
                    pair = calc_a(n, prefix, cache)
                    for b in (0, 1):
                        assert pair[b] == brute_force_coset_wef(n, prefix, b)
        rng = random.Random(5)
        cache = CosetCache()
        for _ in range(100):
            length = rng.randrange(12, 31)
            prefix = tuple(rng.randrange(2) for _ in range(length))
            b = rng.randrange(2)
            assert calc_a(32, prefix, cache)[b] == brute_force_coset_wef(32, prefix, b)


def test_criterion_6_extended_hamming_three_routes(hamming16_spec):
    with criterion(6, "(16,11) code via all three routes", 1):
        oracle = brute_force_wef(hamming16_spec)
        assert oracle == HAMMING16_WEF
        assert wef_direct(hamming16_spec) == HAMMING16_WEF
        assert wef_lta(hamming16_spec) == HAMMING16_WEF
        from polarwd import dual_spec

        dual = dual_spec(hamming16_spec)
        assert macwilliams(wef_direct(dual), 16, dual.k) == HAMMING16_WEF


def test_criterion_7_rm25_self_dual():
    with criterion(7, "(32,16) second-order code is self-dual", 60):
        spec = from_rm(2, 5)
        wef = wef_lta(spec)
        assert macwilliams(wef, 32, 16) == wef
        assert brute_force_wef(spec) == wef


def test_criterion_8_orbit_weight_distributions_agree():
    with criterion(8, "the 8 orbit subsets share one weight distribution", 1):
        # freeze f (index 3) to 1, u_0=u_1=u_2=u_4=0, and let the three
        # single-shift-related rows 5, 6, 7 range over all values
        wds = []
        for bits in itertools.product((0, 1), repeat=3):
            prefix = (0, 0, 0, 1, 0) + bits
            wds.append(brute_force_coset_wef(16, prefix, 0))
        assert all(w == wds[0] for w in wds[1:])


def test_criterion_9_cost_model(polar128_spec):
    with criterion(9, "predicted coset counts", 5):
        cost = estimate_cost(polar128_spec)
        assert cost.direct_cosets == 1 << 37
        assert cost.lta_cosets == 60752896
        assert estimate_cost(from_rm(3, 7)).lta_cosets == 49761365064


def test_criterion_10_partial_order_properties():
    with criterion(10, "partial-order laws, exhaustive for m <= 4", 10):
        for m in (1, 2, 3, 4):
            monos = [Monomial(mask, m) for mask in range(1 << m)]
            for f, g in itertools.product(monos, repeat=2):
                if precedes(f, g) and precedes(g, f):
                    assert f == g  # antisymmetry
                if precedes(f, g) and f != g:
                    # lower monomials sit at larger row indices
                    assert f.row_index > g.row_index
            # the order is the transitive closure of the single shifts: the
            # monomials below g are g and those below its single shifts,
            # each of which sits at a larger row index and so comes first
            below = {}
            for g in sorted(monos, key=lambda x: -x.row_index):
                below[g] = {g}.union(*(below[f] for f in monos if single_shift_le(f, g)))
            for f, g in itertools.product(monos, repeat=2):
                assert (f in below[g]) == precedes(f, g)
            for f, g, h in itertools.product(monos, repeat=3):
                if precedes(f, g) and precedes(g, h):
                    assert precedes(f, h)  # transitivity


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical output across runs", 120):
        path = tmp_path / "ex1.json"
        path.write_text(json.dumps({"m": 4, "unfrozen": list(HAMMING16_UNFROZEN)}))
        outputs = set()
        for hash_seed, extra in (("0", ()), ("1", ("--progress",)), ("2", ())):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            proc = cli("wef", "--spec", str(path), *extra, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
