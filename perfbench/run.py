"""polarwd benchmark: one workload per call, each measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` starts the workload process several times for set-up alone and
once for the timed phase, checks every output, and prints the end-to-end
metrics.  ``--trace 1`` runs the same fixed work twice, untraced and then
traced (single-threaded both times, so per-layer counts repeat exactly), and
prints the per-layer metrics with ``trace.overhead_ratio``, the ratio of the
two timed phases.

The seed chooses the inputs; ``--seconds`` sets a fixed amount of work sized
to take about that long on the reference machine.  Every run prints a report
line (host facts, the tail percentile used and its sample count, failed
units, ``failed_ratio``, ``projected_full_h``) and then, as the last line, the
result object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("polar128-slice", "pac64-direct", "code-mix")
SETUP_PROBES = 2  # set-up-only processes before and after the timed one
RUN_LIMIT_S = 170  # every process of one run must end within this
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
POLAR128_LTA_COSETS = 60_752_896


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args, deadline: float, *flags: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""

    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--t0-ns", str(time.monotonic_ns()), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} did not finish within {RUN_LIMIT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{args.workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_seconds(res: dict) -> list[float]:
    """Per-unit times in reference seconds (see speed.py)."""

    return [t * f for t, f in zip(res["measured_unit_s"], res["speed_factors"])]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile that leaves at
    least TAIL_BEYOND samples above it, by nearest rank."""

    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    def probes() -> list[float]:
        return [
            child(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
        ]

    # set-up is short, so sample it on both sides of the timed phase: the
    # machine's speed drifts over seconds (see speed.py)
    before = probes()
    res = child(args, deadline)
    setup_s = before + [res["setup_s"]] + probes()
    unit_s = reference_seconds(res)
    wall_s = sum(unit_s)
    p, tail_s = tail(unit_s)
    cosets_per_s = res["cosets_evaluated"] / wall_s
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(wall_s, "s"),
        "cosets_per_s": metric(cosets_per_s, "1/s"),
        "unit_s_p50": metric(statistics.median(unit_s), "s"),
        "unit_s_tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    report = {
        "failed_ratio": res["failed"] / res["attempted"],
        "unit_s_tail_percentile": p,
        "unit_samples": len(unit_s),
        "setup_s_samples": setup_s,
        "measured_cosets_per_s": res["cosets_evaluated"] / sum(res["measured_unit_s"]),
        "speed_factor_median": statistics.median(res["speed_factors"]),
    }
    if args.workload == "polar128-slice":
        # an extrapolation from one orbit; see workloads.py for the others
        report["projected_full_h"] = POLAR128_LTA_COSETS / cosets_per_s / 3600
        report["projected_full_h_basis"] = "u_27 orbit slice only, reference seconds"
        report["cache_cap_reached"] = res["cache_peak_entries"] >= res["cache_cap"]
    return metrics, {**report, **res}


def traced(args, deadline: float) -> tuple[dict, dict]:
    plain = child(args, deadline, "--single-thread")
    res = child(args, deadline, "--single-thread", "--trace")
    metrics = {name: metric(v, u) for name, (v, u) in res["layers"].items()}
    overhead = sum(reference_seconds(res)) / sum(reference_seconds(plain))
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    res["attempted"] += plain["attempted"]
    return metrics, res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "polarwd" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'polarwd'} is missing", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    try:
        deadline = time.monotonic() + RUN_LIMIT_S
        metrics, res = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for bulky in ("measured_unit_s", "speed_factors", "layers", "digests"):
        res.pop(bulky, None)
    print(json.dumps({"report": res}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
