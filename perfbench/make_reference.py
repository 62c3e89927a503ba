"""Regenerate the benchmark's data files from the program at ``src/``.

    python3 perfbench/make_reference.py pool
        rebuild codemix_pool.json: every distinct decreasing rm/bec code with
        n = 32..128 whose cheapest route needs fewer than POOL_MAX_COSETS
        cosets, timed through the CLI; per length, sorted by that time and cut
        into equal strata (POOL_STRATA in all, shared out by the number of
        codes of each length), so one code per stratum gives every seed
        nearly the same work and coset count.  (Coset counts are a poor proxy: codes of one
        count-sorted stratum differ 2x in time, of one time-sorted 7 %.)
    python3 perfbench/make_reference.py digests [SEEDS...]
        rebuild reference_digests.json: the enumerator digests of the first
        units of every workload for the given seeds (default 0-10), from a
        short run of each.

Digests are the exactness reference for later changes: regenerate them only
when the program's output is meant to change, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import polarwd as pw  # noqa: E402
import polarwd.cli  # noqa: E402

import speed  # noqa: E402

POOL_MAX_COSETS = 1024
POOL_STRATA = 40
ERASURES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DIGEST_SECONDS = 4  # enough units for the digested prefix of every workload
TIMING_REPEATS = 3


def candidates():
    for m in (5, 6, 7):
        for r in range(m + 1):
            yield {"construction": "rm", "r": r, "m": m}
        for erasure in ERASURES:
            for k in range(1, 1 << m):
                yield {"construction": "bec", "m": m, "k": k, "erasure": erasure}


def cheapest(cost) -> int:
    return min(
        c
        for c in (cost.direct_cosets, cost.lta_cosets, cost.dual_direct_cosets, cost.dual_lta_cosets)
        if c is not None
    )


def cli_seconds(obj: dict, path: Path) -> float:
    """Best of a few ``polarwd wef --allow-dual`` calls, in reference seconds."""

    path.write_text(json.dumps(obj))
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        before = speed.sample()
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = pw.cli.run(["wef", "--spec", str(path), "--allow-dual"])
        elapsed = time.perf_counter() - t
        factor = speed.REFERENCE_KERNEL_S / ((before + speed.sample()) / 2)
        if code != 0:
            raise SystemExit(f"{obj} exited {code}")
        best = min(best, elapsed * factor)
    return best


def make_pool() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    seen = set()
    pool = []
    for obj in candidates():
        try:
            spec = pw.spec_from_json(obj)
        except ValueError:  # the BEC ranking is not decreasing for this k
            continue
        if spec.unfrozen in seen:
            continue
        seen.add(spec.unfrozen)
        if cheapest(pw.estimate_cost(spec)) < POOL_MAX_COSETS:
            pool.append((cli_seconds(obj, work / "pool-spec.json"), len(pool), obj))
    strata = []
    for m in (5, 6, 7):
        # per length, strata in proportion to the codes of that length
        codes = sorted(entry for entry in pool if entry[2]["m"] == m)
        count = round(POOL_STRATA * len(codes) / len(pool))
        size, extra = divmod(len(codes), count)
        at = 0
        for s in range(count):
            width = size + (s < extra)
            strata.append([obj for _, _, obj in codes[at : at + width]])
            at += width
    lines = ",\n".join(json.dumps(stratum) for stratum in strata)
    (HERE / "codemix_pool.json").write_text(
        f'{{"max_cosets": {POOL_MAX_COSETS}, "strata": [\n{lines}\n]}}\n'
    )
    print(f"{len(pool)} codes in {len(strata)} strata")


def make_digests(seeds: list[int]) -> None:
    path = HERE / "reference_digests.json"
    if path.exists():
        path.unlink()  # workers must not check against the old digests
    table: dict = {}
    for workload in ("polar128-slice", "pac64-direct", "code-mix"):
        table[workload] = {}
        for seed in seeds:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(DIGEST_SECONDS),
                    "--t0-ns", str(time.monotonic_ns()),
                ],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            res = json.loads(proc.stdout.splitlines()[-1])
            if res["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed: {res['failures']}")
            table[workload][str(seed)] = res["digests"]
            print(workload, seed, len(res["digests"]), flush=True)
    blocks = []
    for workload, seeds_table in table.items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds_table.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["pool"]:
        make_pool()
    elif sys.argv[1:2] == ["digests"]:
        make_digests([int(s) for s in sys.argv[2:]] or list(range(11)))
    else:
        raise SystemExit(__doc__)
