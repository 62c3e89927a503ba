"""Self-test of the benchmark's own logic against the brute-force oracle.

    python3 perfbench/run.py --selftest

1. Slicing: for small decreasing codes, the sub-slices of every LTA orbit,
   summed and scaled as ``wef_lta`` does, equal ``brute_force_wef``.
2. PAC: the 32 units of the first pac64-direct code add up to
   ``brute_force_wef`` of that code (k = 22, about 4M codewords).
3. Tracing: two traced runs of the same work give identical counts, and
   uninstalling restores every wrapped callable.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import polarwd as pw  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SLICE_BITS = 2


def check_slicing() -> None:
    for spec in (pw.from_rm(2, 5), pw.from_bhattacharyya_bec(6, 20, 0.5), pw.from_rm(1, 6)):
        total = pw.WeightEnumerator.zero()
        for _, orbit, multiplier in workloads.lta_orbits(spec):
            bits = min(SLICE_BITS, pw.profile(orbit).gamma)
            for value in range(1 << bits):
                piece = workloads.pin_red_rows(orbit, bits, value)
                total = total + pw.wef_direct(piece).scale(multiplier)
        assert total == pw.brute_force_wef(spec), f"slices of {spec.label} disagree"
        assert total == pw.wef_lta(spec), f"slices of {spec.label} disagree with wef_lta"
        print(f"PASS slicing {spec.label}: orbits summed and scaled = brute force")


def check_pac() -> None:
    taps = workloads.PAC_TAPS_FAMILY[0]
    code = workloads.pac_code(taps)
    cache = pw.CosetCache()
    total = pw.WeightEnumerator.zero()
    pieces = 1 << workloads.PAC_PIECE_BITS
    for value in range(pieces):
        unit = workloads.pin_red_rows(code, workloads.PAC_PIECE_BITS, value)
        total = total + pw.wef_direct(unit, cache=cache)
    assert total == pw.brute_force_wef(code), "pac64 units disagree with brute force"
    print(f"PASS pac64 taps {taps}: {pieces} units = brute force (k={code.k})")


def traced_counts() -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl = workloads.polar128_slice(seed=3, seconds=1)
        cache = pw.CosetCache()
        for i, unit in enumerate(wl.units[:4]):
            tracer.unit = i
            pw.wef_direct(unit.spec, cache=cache)
        tracer.unit = 4
        pw.wef_auto(pw.from_bhattacharyya_bec(6, 40, 0.5), allow_dual=True)
    finally:
        tracer.uninstall()
    return {
        name: value
        for name, (value, unit) in tracer.layer_metrics().items()
        if unit == "count"
    }


def check_tracing() -> None:
    originals = {
        "polarwd.engine.calc_a": pw.engine.calc_a,
        "polarwd.cli.wef_auto": pw.cli.wef_auto,
        "WeightEnumerator.__mul__": vars(pw.WeightEnumerator)["__mul__"],
        "FreezeConstraint.value": vars(pw.FreezeConstraint)["value"],
    }
    first, second = traced_counts(), traced_counts()
    assert first == second, f"traced counts differ: {first} vs {second}"
    assert first["wef.mul_calls"] > 0 and first["engine.wef_lta_calls"] > 0
    assert pw.engine.calc_a is originals["polarwd.engine.calc_a"]
    assert pw.cli.wef_auto is originals["polarwd.cli.wef_auto"]
    assert vars(pw.WeightEnumerator)["__mul__"] is originals["WeightEnumerator.__mul__"]
    assert vars(pw.FreezeConstraint)["value"] is originals["FreezeConstraint.value"]
    print(f"PASS tracing: two traced runs give identical counts ({len(first)} counters), "
          "every wrapped callable restored")


def main() -> int:
    try:
        check_slicing()
        check_tracing()
        check_pac()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
