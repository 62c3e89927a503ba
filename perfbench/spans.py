"""Span tracing of polarwd from the outside, for the traced benchmark run.

The tracer replaces public callables of the program with wrappers at every
name a caller looks up: module globals bound to the same function object in
any ``polarwd`` module (``polarwd.engine.calc_a``, ``polarwd.cli.wef_auto``,
the package itself) and methods on their classes
(``WeightEnumerator.__mul__``).  The program's files are not edited, and
``uninstall`` puts every original back.

Spans live in memory as parallel arrays (name, start, end, parent, unit) and
are written out once, at the end.  Traced runs are single-threaded, so one
stack gives each span its parent and children never overlap: a span's self
time is its duration minus the sum of its children's.

Untraced runs never import this module.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

import polarwd
import polarwd.cli
import polarwd.codespec
import polarwd.coset
import polarwd.engine
import polarwd.monomials
import polarwd.wef

CodeSpec = polarwd.codespec.CodeSpec
CosetCache = polarwd.coset.CosetCache
FreezeConstraint = polarwd.codespec.FreezeConstraint
WeightEnumerator = polarwd.wef.WeightEnumerator

# (span name, owner, attribute).  An owner that is a module means "this
# function, wherever a polarwd module binds it".
SPANS = (
    ("wef.mul", WeightEnumerator, "__mul__"),
    ("wef.add", WeightEnumerator, "__add__"),
    ("wef.scale", WeightEnumerator, "scale"),
    ("wef.macwilliams", polarwd.wef, "macwilliams"),
    ("coset.calc_a", polarwd.coset, "calc_a"),
    ("coset.cache_get", CosetCache, "get"),
    ("coset.cache_put", CosetCache, "put"),
    ("engine.wef_direct", polarwd.engine, "wef_direct"),
    ("engine.wef_lta", polarwd.engine, "wef_lta"),
    ("engine.wef_auto", polarwd.engine, "wef_auto"),
    ("engine.estimate_cost", polarwd.engine, "estimate_cost"),
    ("codespec.profile", polarwd.codespec, "profile"),
    ("codespec.with_frozen", CodeSpec, "with_frozen"),
    ("codespec.is_decreasing_code", CodeSpec, "is_decreasing_code"),
    ("codespec.dual_spec", polarwd.codespec, "dual_spec"),
    ("codespec.spec_from_json", polarwd.codespec, "spec_from_json"),
    ("monomials.is_decreasing", polarwd.monomials, "is_decreasing"),
    ("cli.run", polarwd.cli, "run"),
)

# Called once per frozen bit of every coset prefix, or once per candidate row
# pair: a span each would cost more than the call, so these are only counted
# and their time stays in the caller's self time.
COUNTS = (
    ("codespec.constraint_value", FreezeConstraint, "value"),
    ("monomials.single_shift_le", polarwd.monomials, "single_shift_le"),
)


def _bindings(owner, attr: str) -> list[tuple[object, str]]:
    """Every (namespace, name) a caller can reach ``owner.attr`` through."""

    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "polarwd" or name.startswith("polarwd."):
            for key, value in vars(module).items():
                if value is target:
                    found.append((module, key))
    return found


class Tracer:
    """Wraps the program's callables and records spans until uninstalled."""

    def __init__(self) -> None:
        self.names: list[str] = [name for name, _, _ in SPANS]
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit_of = array("i")
        self.unit = -1  # -1: set-up, before the first timed unit
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.mul_coeff_ops = 0
        self.cache_hits = 0
        self.cache_refused_puts = 0
        self.cache_entries = 0
        self._put_size = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name_id, (name, owner, attr) in enumerate(SPANS):
            self._wrap(owner, attr, lambda fn, i=name_id: self._span_wrapper(i, fn))
        for name, owner, attr in COUNTS:
            self._wrap(owner, attr, lambda fn, key=name: self._count_wrapper(key, fn))

    def _wrap(self, owner, attr: str, make: Callable) -> None:
        bindings = _bindings(owner, attr)
        wrapper = make(vars(owner)[attr])
        for namespace, key in bindings:
            self._saved.append((namespace, key, vars(namespace)[key]))
            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped callable and check that it is restored."""

        for namespace, key, original in reversed(self._saved):
            setattr(namespace, key, original)
        stale = [
            f"{getattr(ns, '__name__', ns)}.{key}"
            for ns, key, original in self._saved
            if vars(ns)[key] is not original
        ]
        self._saved.clear()
        if stale:
            raise RuntimeError(f"not restored: {stale}")

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name_id: int, fn: Callable) -> Callable:
        name_of, start, end = self.name_of, self.start, self.end
        parent, unit_of, stack = self.parent, self.unit_of, self._stack
        clock = time.perf_counter_ns
        tracer = self
        # counters read off the arguments and result, outside the timed span
        pre, post = {
            "wef.mul": (self._pre_mul, None),
            "coset.cache_get": (None, self._post_get),
            "coset.cache_put": (self._pre_put, self._post_put),
        }.get(self.names[name_id], (None, None))

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            unit_of.append(tracer.unit)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _pre_mul(self, args) -> None:
        a, b = args[0].coeffs, args[1].coeffs
        self.mul_coeff_ops += (len(a) - a.count(0)) * (len(b) - b.count(0))

    def _post_get(self, args, result) -> None:
        self.cache_hits += result is not None

    def _pre_put(self, args) -> None:
        self._put_size = len(args[0])

    def _post_put(self, args, result) -> None:
        size = len(args[0])
        self.cache_refused_puts += size == self._put_size
        self.cache_entries = max(self.cache_entries, size)

    def _count_wrapper(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "unit": np.array(self.unit_of, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        """All spans, as a compressed numpy archive with the span names."""

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times, each as (value, unit)."""

        a = self.arrays()
        names, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = parent >= 0
        child_s = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - child_s
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(name: str) -> np.ndarray:
            return names == ids[name]

        def calls(name: str) -> int:
            return int(mask(name).sum())

        def total(name: str, values: np.ndarray = dur) -> float:
            return float(values[mask(name)].sum())

        def children_of(child: str, parent_name: str) -> np.ndarray:
            m = mask(child) & has_parent
            m[m] = names[parent[m]] == ids[parent_name]
            return m

        gets = calls("coset.cache_get")
        direct_cosets = int(children_of("coset.calc_a", "engine.wef_direct").sum())
        direct_self = total("engine.wef_direct", self_s)
        cli_self = total("cli.run") - float(dur[children_of("engine.wef_auto", "cli.run")].sum())
        return {
            "wef.mul_calls": (calls("wef.mul"), "count"),
            "wef.mul_s": (total("wef.mul"), "s"),
            "wef.mul_coeff_ops": (self.mul_coeff_ops, "count"),
            "wef.add_calls": (calls("wef.add"), "count"),
            "wef.add_s": (total("wef.add"), "s"),
            "wef.scale_calls": (calls("wef.scale"), "count"),
            "wef.macwilliams_calls": (calls("wef.macwilliams"), "count"),
            "wef.macwilliams_s": (total("wef.macwilliams"), "s"),
            "coset.calc_a_calls": (calls("coset.calc_a"), "count"),
            "coset.calc_a_s": (total("coset.calc_a"), "s"),
            "coset.calc_a_self_s": (total("coset.calc_a", self_s), "s"),
            "coset.cache_gets": (gets, "count"),
            "coset.cache_hits": (self.cache_hits, "count"),
            "coset.cache_hit_ratio": (self.cache_hits / gets if gets else 0.0, "ratio"),
            "coset.cache_puts": (calls("coset.cache_put"), "count"),
            "coset.cache_refused_puts": (self.cache_refused_puts, "count"),
            "coset.cache_entries": (self.cache_entries, "count"),
            "engine.wef_direct_calls": (calls("engine.wef_direct"), "count"),
            "engine.direct_self_s": (direct_self, "s"),
            "engine.prefix_us_per_coset": (
                direct_self / direct_cosets * 1e6 if direct_cosets else 0.0, "us"
            ),
            "engine.wef_lta_calls": (calls("engine.wef_lta"), "count"),
            "engine.lta_self_s": (total("engine.wef_lta", self_s), "s"),
            "engine.estimate_cost_s": (total("engine.estimate_cost"), "s"),
            "codespec.profile_calls": (calls("codespec.profile"), "count"),
            "codespec.profile_s": (total("codespec.profile"), "s"),
            "codespec.with_frozen_calls": (calls("codespec.with_frozen"), "count"),
            "codespec.with_frozen_s": (total("codespec.with_frozen"), "s"),
            "codespec.constraint_value_calls": (self.counts["codespec.constraint_value"], "count"),
            "codespec.dual_spec_s": (total("codespec.dual_spec"), "s"),
            "codespec.spec_from_json_s": (total("codespec.spec_from_json"), "s"),
            "codespec.is_decreasing_code_s": (total("codespec.is_decreasing_code"), "s"),
            "monomials.is_decreasing_calls": (calls("monomials.is_decreasing"), "count"),
            "monomials.is_decreasing_s": (total("monomials.is_decreasing"), "s"),
            "monomials.single_shift_le_calls": (self.counts["monomials.single_shift_le"], "count"),
            "cli.run_calls": (calls("cli.run"), "count"),
            "cli.run_s": (total("cli.run"), "s"),
            "cli.self_s": (cli_self, "s"),
        }
