"""One workload in one fresh process: set up, run the timed units, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --t0-ns NS
        [--setup-only] [--trace] [--single-thread]

``--t0-ns`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time counts interpreter start and imports.  The last
line of standard output is one JSON object with the raw results; ``run.py``
turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
DIGEST_FILE = HERE / "reference_digests.json"
DIGEST_UNITS = 40  # units per run whose enumerators are digested
ORACLE_K_GUARD = 16  # brute force at most 2^16 codewords per code
MAX_FAILURES_SHOWN = 5

sys.path.insert(0, str(SRC))
import numpy  # noqa: E402
import polarwd  # noqa: E402
import polarwd.cli  # noqa: E402
import polarwd.engine  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

pw = polarwd


def wef_digest(pairs: list) -> str:
    """Short digest of an enumerator in the CLI's [[w, "count"], ...] form."""

    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polarwd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


class Runner:
    """Set-up, timed phase and checks for one workload."""

    def __init__(self, wl: workloads.Workload, threads: int):
        self.wl = wl
        self.threads = threads
        self.caches: dict[int, pw.CosetCache] = {}
        self.cache_peak = 0
        self.cache_cap = 0
        if wl.name == "code-mix":
            # the CLI reads specs from files; cost estimates predict cosets
            spec_dir = WORK_DIR / f"code-mix-{wl.seed}"
            spec_dir.mkdir(parents=True, exist_ok=True)
            self.paths = []
            for g, spec in enumerate(wl.groups):
                path = spec_dir / f"code{g:02d}.json"
                path.write_text(json.dumps(wl.units[g].spec_json))
                self.paths.append(str(path))
            self.costs = [pw.estimate_cost(spec) for spec in wl.groups]
            # filled in by the checks, from the route each call reports
            self.predicted = [None] * len(wl.units)
        else:
            # reported for engine.cosets_ratio only: on the direct route the
            # estimate and the engine both count 2^gamma, so it is not checked
            self.predicted = [pw.estimate_cost(u.spec).direct_cosets for u in wl.units]

    def run_unit(self, i: int):
        unit = self.wl.units[i]
        if self.wl.name == "code-mix":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pw.cli.run(["wef", "--spec", self.paths[unit.group], "--allow-dual"])
            return code, out.getvalue(), err.getvalue()
        if unit.group not in self.caches:
            self._close_caches()
            self.caches[unit.group] = pw.CosetCache()
        stats = pw.engine.EngineStats()
        wef = pw.wef_direct(
            unit.spec, cache=self.caches[unit.group], threads=self.threads, stats=stats
        )
        return wef, stats.cosets_evaluated

    def _close_caches(self) -> None:
        for cache in self.caches.values():
            self.cache_peak = max(self.cache_peak, len(cache))
            self.cache_cap = cache.max_entries
        self.caches.clear()

    def timed_phase(self, tracer) -> tuple[list, list, list, float]:
        """Outputs, measured seconds and speed factors per unit, and the
        measured wall time of the phase (kernel samples included)."""

        outputs, seconds, kernel_s = [], [], []
        start = time.perf_counter()
        for i in range(len(self.wl.units)):
            if tracer is not None:
                tracer.unit = i
            kernel_s.append(speed.sample())
            t = time.perf_counter()
            try:
                outputs.append(self.run_unit(i))
            except Exception as exc:  # a failed unit is counted, not fatal
                outputs.append(exc)
            seconds.append(time.perf_counter() - t)
        kernel_s.append(speed.sample())
        wall = time.perf_counter() - start
        self._close_caches()
        return outputs, seconds, speed.factors(kernel_s), wall

    # -- checks, outside the timed phase --------------------------------------

    def check(self, outputs: list) -> tuple[list[str | None], list[str], int, int]:
        """Per-unit failure (or None), per-unit digests, cosets evaluated and
        predicted."""

        fails: list[str | None] = []
        digests: list[str] = []
        evaluated = 0
        first_output: dict[int, str] = {}
        for i, (unit, out) in enumerate(zip(self.wl.units, outputs)):
            if isinstance(out, Exception):
                fails.append(f"{unit.name}: raised {out!r}")
                digests.append("")
                continue
            if self.wl.name == "code-mix":
                fail, digest, cosets = self._check_cli(i, unit, out, first_output)
            else:
                fail, digest, cosets = self._check_direct(i, unit, out)
            fails.append(fail)
            digests.append(digest)
            evaluated += cosets
        if self.wl.name == "pac64-direct":
            self._check_pac_codes(outputs, fails)
        if self.wl.name == "code-mix":
            self._check_oracle(first_output, fails)
        predicted = sum(p for p in self.predicted if p is not None)
        return fails, digests, evaluated, predicted

    def _check_direct(self, i, unit, out):
        wef, cosets = out
        problems = []
        if wef.eval_at_one() != 1 << unit.spec.k:
            problems.append(f"sums to {wef.eval_at_one()}, expected 2^{unit.spec.k}")
        if self.wl.name == "polar128-slice":
            odd = [w for w, _ in wef.items() if w % 2 or w < 8]
            if odd:
                problems.append(f"weights {odd[:3]} are odd or below 8")
        fail = f"{unit.name}: {'; '.join(problems)}" if problems else None
        return fail, wef_digest(wef.to_pairs()), cosets

    def _check_cli(self, i, unit, out, first_output):
        code, text, err = out
        if code != 0:
            return f"{unit.name}: exit {code}: {err.strip()}", "", 0
        try:
            payload = json.loads(text)
            counts = [int(c) for _, c in payload["wef"]]
            cosets = int(payload["cosets_evaluated"])
            route = payload["route"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"{unit.name}: unreadable output: {exc!r}", "", 0
        cost = self.costs[unit.group]
        self.predicted[i] = {
            "direct": cost.direct_cosets,
            "lta": cost.lta_cosets,
            "dual+direct": cost.dual_direct_cosets,
            "dual+lta": cost.dual_lta_cosets,
        }.get(route)
        problems = []
        if sum(counts) != 1 << unit.spec.k:
            problems.append(f"sums to {sum(counts)}, expected 2^{unit.spec.k}")
        if cosets != self.predicted[i]:
            problems.append(f"route {route} evaluated {cosets}, predicted {self.predicted[i]}")
        if first_output.setdefault(unit.group, text) != text:
            problems.append("output differs from the first pass")
        fail = f"{unit.name}: {'; '.join(problems)}" if problems else None
        return fail, wef_digest(payload["wef"]), cosets

    def _check_pac_codes(self, outputs, fails) -> None:
        """Each whole PAC code: A_0 = 1 and MacWilliams accepts it."""

        for g, code in enumerate(self.wl.groups):
            members = [i for i, u in enumerate(self.wl.units) if u.group == g]
            if any(isinstance(outputs[i], Exception) for i in members):
                continue
            total = pw.WeightEnumerator.zero()
            for i in members:
                total = total + outputs[i][0]
            problem = None
            if total.coeff(0) != 1:
                problem = f"A_0 = {total.coeff(0)}"
            else:
                try:
                    pw.macwilliams(total, code.n, code.k)
                except ValueError as exc:
                    problem = f"MacWilliams refused the enumerator: {exc}"
            if problem:
                for i in members:
                    fails[i] = fails[i] or f"{self.wl.units[i].name}: code {problem}"

    def _check_oracle(self, first_output, fails) -> None:
        """Brute force each code, or its dual, where 2^16 codewords suffice."""

        for g, spec in enumerate(self.wl.groups):
            if g not in first_output:
                continue
            got = pw.WeightEnumerator(
                _dense(json.loads(first_output[g])["wef"], spec.n)
            )
            if spec.k <= ORACLE_K_GUARD:
                expected = pw.brute_force_wef(spec, k_guard=ORACLE_K_GUARD)
            elif spec.n - spec.k <= ORACLE_K_GUARD:
                dual = pw.dual_spec(spec)
                expected = pw.macwilliams(
                    pw.brute_force_wef(dual, k_guard=ORACLE_K_GUARD), spec.n, dual.k
                )
            else:
                continue
            if got != expected:
                for i, unit in enumerate(self.wl.units):
                    if unit.group == g:
                        fails[i] = fails[i] or f"{unit.name}: differs from brute force"


def _dense(pairs: list, n: int) -> list[int]:
    coeffs = [0] * (n + 1)
    for w, c in pairs:
        coeffs[w] = int(c)
    return coeffs


def reference_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGEST_FILE.is_file():
        return None
    return json.loads(DIGEST_FILE.read_text()).get(workload, {}).get(str(seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--single-thread", action="store_true")
    args = parser.parse_args()

    if not Path(polarwd.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"polarwd was imported from {polarwd.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed, args.seconds)
    runner = Runner(wl, 1 if args.single_thread else wl.threads)
    result: dict = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9}
    if args.setup_only:
        if tracer is not None:
            tracer.uninstall()
        print(json.dumps(result))
        return

    outputs, unit_s, factors, wall = runner.timed_phase(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    fails, digests, evaluated, predicted = runner.check(outputs)
    expected = reference_digests(wl.name, wl.seed)
    if expected is not None:
        for i, (got, want) in enumerate(zip(digests, expected)):
            if got != want:
                fails[i] = fails[i] or f"{wl.units[i].name}: digest {got} != reference {want}"
    failures = [f for f in fails if f]
    stdout_bytes = 0
    if wl.name == "code-mix":
        stdout_bytes = sum(
            len(out[1].encode()) for out in outputs if not isinstance(out, Exception)
        )
    result.update(
        {
            "workload": wl.name,
            "seed": wl.seed,
            "threads": runner.threads,
            "measured_wall_s": wall,
            "measured_unit_s": unit_s,
            "speed_factors": factors,
            "attempted": len(outputs),
            "failed": len(failures),
            "failures": failures[:MAX_FAILURES_SHOWN],
            "cosets_evaluated": evaluated,
            "cosets_predicted": predicted,
            "stdout_bytes": stdout_bytes,
            "peak_rss_mb": peak_rss_mb,
            "digests": digests[:DIGEST_UNITS],
            "digests_checked": expected is not None,
            "cache_peak_entries": runner.cache_peak,
            "cache_cap": runner.cache_cap,
            "host": host_facts(),
        }
    )
    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics["engine.cosets_evaluated"] = (evaluated, "count")
        metrics["engine.cosets_predicted"] = (predicted, "count")
        metrics["engine.cosets_ratio"] = (evaluated / predicted if predicted else 0.0, "ratio")
        metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
        spans_path = WORK_DIR / f"spans-{wl.name}-seed{wl.seed}.npz"
        tracer.write(spans_path)
        result["layers"] = metrics
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
