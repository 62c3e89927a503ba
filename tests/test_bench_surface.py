"""The program surface the benchmark in ``perfbench/`` reads.

The benchmark's tracer wraps named callables and its self-test checks that
they are restored; a rename in ``polarwd`` breaks both without failing any
other test.  The full ``perfbench/run.py --selftest`` takes seconds, so this
checks the names, and that the coset recursion still passes through the two
callables the tracer counts it by.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import polarwd.cli
import polarwd.engine
from polarwd import CosetCache, WeightEnumerator
from polarwd import from_rm, pac_spec, wef_direct
from polarwd.coset import affine_sum

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SELFTEST_PATH = SPANS_PATH.with_name("selftest.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize(
    "name, owner, attr",
    SPANS.SPANS + SPANS.COUNTS,
    ids=[name for name, _, _ in SPANS.SPANS + SPANS.COUNTS],
)
def test_traced_callable_resolves(name, owner, attr):
    if isinstance(owner, type):
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_selftest_bindings():
    assert callable(polarwd.engine.calc_a)
    assert callable(polarwd.cli.wef_auto)


def test_wef_direct_accepts_threads():
    assert "threads" in inspect.signature(polarwd.engine.wef_direct).parameters


def test_recursion_reaches_traced_callables(monkeypatch):
    # the tracer sees the recursion only through these two; its self-test
    # asserts that products were counted
    calls = {"get": 0, "mul": 0}
    get, mul = CosetCache.get, WeightEnumerator.__mul__

    def counted_get(*args):
        calls["get"] += 1
        return get(*args)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(CosetCache, "get", counted_get)
    monkeypatch.setattr(WeightEnumerator, "__mul__", counted_mul)
    # two 3-bit prefixes, 2^5 words each
    assert affine_sum(8, 3, 1, [2], CosetCache()).eval_at_one() == 2 << 5
    assert calls["get"] > 0 and calls["mul"] > 0


def test_traced_cache_counts_pinned(monkeypatch):
    # the tracer counts the recursion's lookups and stores by wrapping these
    # two methods by name.  PAC(32,16)'s direct set, split into its quarter
    # blocks, takes 956 lookups (one per entry of each side row a node
    # stores whose child on that side is shared, the rows at n = 2 over base
    # nodes included: a repeated row looks up nothing, and a child asked by
    # one side only keeps no sum table) and 86 stores (one per distinct set
    # of a shared node); a lookup or store that bypasses the methods changes
    # these counts
    calls = {"get": 0, "put": 0}
    for name in calls:
        method = getattr(CosetCache, name)

        def counted(*args, _m=method, _n=name):
            calls[_n] += 1
            return _m(*args)

        monkeypatch.setattr(CosetCache, name, counted)
    pac32 = pac_spec(5, from_rm(2, 5).unfrozen, [1, 0, 1, 1, 0, 1, 1])
    cache = CosetCache()
    wef_direct(pac32, cache=cache)
    assert calls == {"get": 956, "put": 86}
    assert len(cache) == 86
    rows = [
        row
        for node in cache.nodes.values()
        if node.left is not None
        for side, child in zip(node.rows, (node.left, node.right))
        if child.shared
        for row in side.values()
    ]
    assert calls["get"] == sum(len(cache.row(row)) for row in rows)


def test_tracer_selftest(monkeypatch, capsys):
    # the benchmark's tracer check: two traced runs count alike, wef_auto
    # reaches wef_lta through the module global, products are counted and
    # every wrapped callable is restored
    monkeypatch.syspath_prepend(str(SELFTEST_PATH.parent))
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.check_tracing()
    assert capsys.readouterr().out.startswith("PASS tracing")
