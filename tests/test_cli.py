import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from functools import cached_property

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarwd import WeightEnumerator
from polarwd.codespec import CodeSpec
from polarwd.cli import _parser, _wef_text, run

from conftest import HAMMING16_UNFROZEN


@pytest.fixture
def hamming16_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps({"m": 4, "unfrozen": list(HAMMING16_UNFROZEN)}))
    return str(path)


def _wef_with_capped_memory(tmp_path, obj):
    """``wef`` on the spec ``obj`` in a subprocess whose address space is
    capped, so that a regression fails fast instead of exhausting memory."""

    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    limit = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "polarwd.cli", "wef", "--spec", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWef:
    def test_json_shape_and_values(self, capsys, hamming16_file):
        code, out, _ = invoke(capsys, "wef", "--spec", hamming16_file, "--strategy", "lta")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 16 and payload["k"] == 11
        assert payload["route"] == "lta"
        assert payload["cosets_evaluated"] == "5"
        assert payload["wef"][0] == [0, "1"]
        assert [4, "140"] in payload["wef"]
        assert all(isinstance(c, str) for _, c in payload["wef"])

    def test_out_file(self, capsys, hamming16_file, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = invoke(
            capsys, "wef", "--spec", hamming16_file, "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["k"] == 11

    def test_progress_lines_on_stderr(self, capsys, hamming16_file):
        code, out, err = invoke(
            capsys, "wef", "--spec", hamming16_file, "--strategy", "direct", "--progress"
        )
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("PROGRESS ")]
        assert lines and lines[-1] == "PROGRESS 16/16"

    def test_lta_progress_ends_at_prediction(self, capsys, hamming16_file):
        # the last line counts the all-zero coset that completes the sum
        code, _, err = invoke(
            capsys, "wef", "--spec", hamming16_file, "--strategy", "lta", "--progress"
        )
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("PROGRESS ")]
        assert lines == [f"PROGRESS {d}/5" for d in range(1, 6)]

    @pytest.mark.parametrize(
        "obj, route",
        [
            ({"construction": "rm", "r": 2, "m": 5}, "lta"),
            ({"construction": "bec", "m": 6, "k": 40, "erasure": 0.5}, "dual+lta"),
        ],
    )
    def test_decreasing_checked_once_per_spec(self, capsys, tmp_path, monkeypatch, obj, route):
        # construction, cost estimate and route all ask whether a spec is
        # decreasing, and cost estimate and route both read its orbit
        # split; the spec and its dual each work out their split once, and
        # the dual takes the spec's decreasing status, so that check runs
        # once per pair
        computed = {name: [] for name in ("_decreasing", "_orbits")}
        for name, calls in computed.items():
            compute = getattr(CodeSpec, name).func
            counted = cached_property(lambda spec, f=compute, c=calls: c.append(1) or f(spec))
            counted.__set_name__(CodeSpec, name)
            monkeypatch.setattr(CodeSpec, name, counted)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        code, out, _ = invoke(capsys, "wef", "--spec", str(path), "--allow-dual")
        assert code == 0 and json.loads(out)["route"] == route
        assert {name: len(calls) for name, calls in computed.items()} == {
            "_decreasing": 1,
            "_orbits": 2,
        }

    def test_budget_refusal_exit_2(self, capsys, hamming16_file):
        code, _, err = invoke(
            capsys, "wef", "--spec", hamming16_file, "--budget", "2"
        )
        assert code == 2
        assert "ERROR[budget_exceeded]" in err

    def test_negative_budget_is_a_usage_error(self, capsys, monkeypatch, hamming16_file):
        def refuse(*args, **kwargs):
            raise AssertionError("the spec was loaded before the budget was checked")

        monkeypatch.setattr("polarwd.cli._load_spec", refuse)
        code, out, err = invoke(capsys, "wef", "--spec", hamming16_file, "--budget", "-1")
        assert (code, out, err) == (1, "", "ERROR[bad_budget] budget must be non-negative\n")

    def test_zero_budget_fits_only_rate_one(self, capsys, tmp_path, hamming16_file):
        path = tmp_path / "rate_one.json"
        path.write_text(json.dumps({"m": 3, "frozen": []}))
        code, out, _ = invoke(capsys, "wef", "--spec", str(path), "--budget", "0")
        assert code == 0 and json.loads(out)["cosets_evaluated"] == "0"
        code, out, err = invoke(capsys, "wef", "--spec", hamming16_file, "--budget", "0")
        assert (code, out) == (2, "") and "ERROR[budget_exceeded]" in err

    def test_inadmissible_strategy_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 4, "unfrozen": [3, 15]}))
        code, _, err = invoke(capsys, "wef", "--spec", str(path), "--strategy", "lta")
        assert code == 1
        assert "ERROR[strategy_inadmissible]" in err

    def test_non_linear_dual_enumerator_exit_3(self, capsys, hamming16_file, monkeypatch):
        # the (16,11) code takes the dual+lta route; a dual enumerator that no
        # linear code has makes MacWilliams fail, which is an internal fault
        monkeypatch.setattr(
            "polarwd.engine.wef_lta", lambda spec, **_: WeightEnumerator([1, 31])
        )
        code, out, err = invoke(capsys, "wef", "--spec", hamming16_file, "--allow-dual")
        assert code == 3 and out == ""
        assert "ERROR[internal_invariant]" in err
        assert "not a linear-code weight enumerator" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "wef", "--spec", "/nonexistent.json")
        assert code == 1 and "ERROR[spec_unreadable]" in err

    @pytest.mark.parametrize(
        "data",
        [
            b"{not json",
            # not UTF-8
            b'\xff\xfe{"m": 3}',
            # nested deeper than the decoder's recursion limit
            b"[" * 200_000,
        ],
        ids=["syntax", "not-utf8", "deep"],
    )
    def test_malformed_json(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, _, err = invoke(capsys, "cost", "--spec", str(path))
        assert code == 1 and "ERROR[spec_malformed_json]" in err

    def test_invalid_spec(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 2, "unfrozen": [9]}))
        code, _, err = invoke(capsys, "cost", "--spec", str(path))
        assert code == 1 and "ERROR[spec_invalid]" in err

    @pytest.mark.parametrize(
        "obj",
        [{"m": -1, "frozen": []}, {"construction": "rm", "r": 1, "m": -1}],
        ids=["plain", "rm"],
    )
    def test_negative_m_rejected(self, capsys, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = invoke(capsys, "wef", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err == "ERROR[spec_invalid] invalid spec: m must be non-negative\n"

    @pytest.mark.parametrize(
        "text",
        [
            # constraint targets outside [0, n)
            '{"m": 2, "constraints": [{"target": 9}]}',
            '{"m": 2, "constraints": [{"target": -1}]}',
            # unfrozen indices outside [0, n) beside constraints
            '{"m": 2, "unfrozen": [3, 7], "constraints": []}',
            '{"m": 2, "unfrozen": [3, -1], "constraints": []}',
            # generator entries other than 0 and 1
            '{"construction": "generator", "matrix": [[1, 1, 2, 3]]}',
            # PAC taps other than 0 and 1
            '{"construction": "pac", "m": 2, "profile": [3], "taps": [1, 2]}',
            '{"construction": "pac", "m": 2, "profile": [3], "taps": [3, 1]}',
            # values that overflow int or uint8
            '{"m": Infinity, "unfrozen": []}',
            '{"construction": "generator", "matrix": [[256, 1]]}',
            '{"construction": "pac", "m": 2, "profile": [3], "taps": [1, -Infinity]}',
            # non-integers where an integer belongs, never truncated
            '{"m": 3.9, "frozen": [0]}',
            '{"m": 3, "frozen": [1.7]}',
            '{"construction": "rm", "r": 1.9, "m": 3}',
            '{"m": "3", "frozen": [0]}',
            '{"m": 2, "constraints": [{"target": 2.5, "support": [0.9]}]}',
            '{"m": 2, "constraints": [{"target": 2, "support": [0.9]}]}',
            '{"m": 2, "constraints": [{"target": 2, "constant": 1.0}]}',
            '{"m": 2, "unfrozen": [3.0], "constraints": []}',
            '{"construction": "bec", "m": 3, "k": 4.5, "erasure": 0.5}',
            '{"construction": "pac", "m": 2, "profile": [3.0], "taps": [1]}',
            # integral floats and strings where an integer or a number belongs
            '{"construction": "bec", "m": 3, "k": 4, "erasure": "0.5"}',
            '{"construction": "pac", "m": 2, "profile": [3], "taps": [1.0, 0.0, 1.0]}',
            '{"construction": "generator", "matrix": [[1.0, 1.0]]}',
            # a constraint target listed twice, and a support that repeats an
            # index (as an xor, u_3 = u_0 xor u_0 = 0, not u_0)
            '{"m": 2, "constraints": [{"target": 2, "support": [0]}, {"target": 2}]}',
            '{"m": 3, "unfrozen": [0, 1, 2, 4, 5, 6, 7], '
            '"constraints": [{"target": 3, "support": [0, 0]}]}',
            # "frozen" beside "unfrozen" or "constraints", neither dropped
            '{"m": 2, "frozen": [0], "unfrozen": [0]}',
            '{"m": 2, "frozen": [0], "constraints": [{"target": 1}]}',
            # index keys beside a construction, which reads none of them
            '{"construction": "rm", "r": 1, "m": 3, "frozen": [0, 1, 2, 3, 4, 5, 6, 7], '
            '"unfrozen": [0]}',
            '{"construction": "bec", "m": 3, "k": 4, "erasure": 0.5, "constraints": []}',
            # an index listed twice, which the set of indices would drop
            '{"m": 2, "frozen": [0, 0]}',
            '{"m": 2, "unfrozen": [3, 3], "constraints": []}',
        ],
    )
    def test_out_of_range_values_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "wef", "--spec", str(path))
        assert (code, out) == (1, "") and "ERROR[spec_invalid]" in err

    def test_unwritable_out_path(self, capsys, hamming16_file, tmp_path):
        out = str(tmp_path / "missing" / "wef.json")
        code, stdout, err = invoke(capsys, "wef", "--spec", hamming16_file, "--out", out)
        assert (code, stdout) == (1, "") and err.startswith("ERROR[out_unwritable]")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, engine",
        [
            ("wef", "wef_auto"),
            ("cost", "estimate_cost"),
            ("brute-force", "brute_force_wef"),
            ("dual", "dual_spec"),
        ],
    )
    def test_unwritable_out_refused_before_work(
        self, capsys, monkeypatch, hamming16_file, tmp_path, command, engine
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{engine} ran before --out was checked")

        monkeypatch.setattr(f"polarwd.cli.{engine}", refuse)
        out = str(tmp_path / "missing" / "out.json")
        code, stdout, err = invoke(capsys, command, "--spec", hamming16_file, "--out", out)
        assert (code, stdout) == (1, "") and err.startswith("ERROR[out_unwritable]")

    def test_refused_run_leaves_out_path_as_it_was(self, capsys, hamming16_file, tmp_path):
        # the check before the work creates no file and truncates none
        out = tmp_path / "wef.json"
        argv = ["wef", "--spec", hamming16_file, "--out", str(out)]
        code, _, err = invoke(capsys, *argv, "--budget", "2")
        assert code == 2 and "ERROR[budget_exceeded]" in err and not out.exists()
        out.write_text("old\n")
        code, _, _ = invoke(capsys, *argv, "--budget", "2")
        assert code == 2 and out.read_text() == "old\n"
        code, _, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(out.read_text())["k"] == 11

    def test_huge_m_rejected_promptly(self, tmp_path):
        proc = _wef_with_capped_memory(tmp_path, {"m": 40, "frozen": []})
        assert proc.returncode == 1 and "ERROR[spec_invalid]" in proc.stderr

    def test_large_pac_rejected_promptly(self, tmp_path):
        # PAC supports are dense: m = 13 took 16 s and 1.3 GB to load before
        # the loader bounded pac specs by the matrix guard
        obj = {"construction": "pac", "m": 13, "profile": [8191], "taps": [1, 0, 1, 1, 0, 1, 1]}
        proc = _wef_with_capped_memory(tmp_path, obj)
        assert proc.returncode == 1 and "ERROR[spec_invalid]" in proc.stderr

    def test_unknown_flag(self, capsys, hamming16_file):
        code, _, _ = invoke(capsys, "wef", "--spec", hamming16_file, "--bogus")
        assert code == 1

    def test_brute_force_guard_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"m": 5, "frozen": [0]}))
        code, _, err = invoke(capsys, "brute-force", "--spec", str(path))
        assert code == 2 and "ERROR[guard_exceeded]" in err


# Arbitrary JSON spec objects: one shape per way of writing a spec, with
# every field missing, of the wrong type, out of range or huge.  Valid values
# of m stop at 6 so that a spec that does load is evaluated in milliseconds.
_weird = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _field(good):
    return st.one_of(good, _weird)


_m = _field(st.one_of(st.integers(-3, 6), st.integers(17, 2**70), st.integers(max_value=-4)))
_small = st.integers(-3, 70)
_indices = _field(st.lists(_field(_small), max_size=8))
_constraint = _field(
    st.fixed_dictionaries(
        {"target": _field(_small)},
        optional={"support": _indices, "constant": _field(st.integers(-1, 2))},
    )
)


def _shape(construction, **fields):
    required = {} if construction is None else {"construction": _field(st.just(construction))}
    return st.fixed_dictionaries(required, optional=fields)


_spec_object = st.one_of(
    _shape(None, m=_m, frozen=_indices),
    _shape(None, m=_m, unfrozen=_indices),
    _shape(None, m=_m, unfrozen=_indices, constraints=_field(st.lists(_constraint, max_size=4))),
    _shape("rm", m=_m, r=_field(_small)),
    _shape("bec", m=_m, k=_field(_small), erasure=_field(st.floats())),
    _shape("pac", m=_m, profile=_indices, taps=_field(st.one_of(st.text("01", max_size=8), _indices))),
    _shape("generator", matrix=_field(st.lists(st.lists(_field(st.integers(-2, 300)), max_size=8), max_size=4))),
    _shape("polar", m=_m),
    _weird,
)


class TestFuzzedSpecs:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_spec_object)
    def test_wef_exits_cleanly(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["wef", "--spec", path, "--budget", "4096"])
        assert code in (0, 1, 2), err.getvalue()
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("ERROR[")
        else:
            payload = json.loads(out.getvalue())
            assert sum(int(c) for _, c in payload["wef"]) == 1 << payload["k"]


class TestOutputText:
    """``wef`` and ``brute-force`` write their text directly; it must be byte
    for byte what ``json.dumps(payload, indent=2)`` gives."""

    def test_random_enumerators(self, hamming16_spec):
        for seed in range(40):
            rng = random.Random(seed)
            # seed 0 has no pairs: "wef": []
            coeffs = [
                rng.choice([0, rng.getrandbits(rng.randrange(1, 140))])
                for _ in range(0 if seed == 0 else rng.randrange(1, 70))
            ]
            wef = WeightEnumerator(coeffs)
            route = rng.choice(["lta", "direct", "dual+lta", "dual+direct", "brute-force"])
            cosets = rng.getrandbits(rng.randrange(1, 80))
            payload = {
                "n": hamming16_spec.n,
                "k": hamming16_spec.k,
                "route": route,
                "cosets_evaluated": str(cosets),
                "wef": wef.to_pairs(),
            }
            text = _wef_text(hamming16_spec, wef, route, cosets)
            assert text == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            {"m": 4, "unfrozen": list(HAMMING16_UNFROZEN)},
            # PAC(32,16)
            {
                "construction": "pac",
                "m": 5,
                "profile": [7, 11, 13, 14, 15, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31],
                "taps": [1, 0, 1, 1, 0, 1, 1],
            },
            {"m": 3, "unfrozen": []},
            {"m": 3, "frozen": []},
        ],
        ids=["hamming16", "pac32", "k0", "rate-one"],
    )
    @pytest.mark.parametrize(
        "argv", [["wef"], ["wef", "--strategy", "direct"], ["wef", "--allow-dual"], ["brute-force"]]
    )
    def test_canonical_json(self, capsys, tmp_path, obj, argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        code, out, err = invoke(capsys, *argv, "--spec", str(path))
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        target = tmp_path / "out.json"
        assert invoke(capsys, *argv, "--spec", str(path), "--out", str(target)) == (0, "", "")
        assert target.read_text() == out


class TestOtherCommands:
    def test_cost(self, capsys, hamming16_file, tmp_path):
        assert invoke(capsys, "cost", "--spec", hamming16_file) == (
            0,
            '{\n  "n": 16,\n  "k": 11,\n  "direct_cosets": "16",\n  "lta_cosets": "5",\n'
            '  "dual_direct_cosets": "4",\n  "dual_lta_cosets": "3"\n}\n',
            "",
        )
        # not decreasing, nor is its dual: both reduced routes are undefined
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 4, "unfrozen": [3, 15]}))
        assert invoke(capsys, "cost", "--spec", str(path)) == (
            0,
            '{\n  "n": 16,\n  "k": 2,\n  "direct_cosets": "2",\n  "lta_cosets": null,\n'
            '  "dual_direct_cosets": "2048",\n  "dual_lta_cosets": null\n}\n',
            "",
        )

    def test_mixing_factor(self, capsys, hamming16_file):
        assert invoke(capsys, "mixing-factor", "--spec", hamming16_file) == (0, "4\n", "")

    def test_max_mixing_factor(self, capsys):
        assert invoke(capsys, "max-mixing-factor", "--m", "10")[:2] == (0, "721\n")

    def test_max_mixing_factor_m_bounded(self):
        # the search grows 3.3-4x per step of m, so m = 17 would run for
        # minutes; a subprocess ends a regression at the timeout
        proc = subprocess.run(
            [sys.executable, "-m", "polarwd.cli", "max-mixing-factor", "--m", "17"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (1, "") and "ERROR[bad_m]" in proc.stderr

    def test_max_mixing_factor_rate_half(self, capsys):
        assert invoke(capsys, "max-mixing-factor", "--m", "10", "--rate-half")[:2] == (
            0,
            "450\n",
        )

    def test_compare(self, capsys):
        assert invoke(capsys, "compare", "--f", "x0x3", "--g", "x2x3", "--m", "4")[:2] == (
            0,
            "f_precedes_g\n",
        )

    def test_compare_m_bounded(self, capsys):
        # --m has the bound of max-mixing-factor's --m and of a spec's m
        assert invoke(capsys, "compare", "--f", "x0", "--g", "x1", "--m", "16")[:2] == (
            0,
            "f_precedes_g\n",
        )
        code, out, err = invoke(capsys, "compare", "--f", "x0", "--g", "x1", "--m", "17")
        assert (code, out) == (1, "") and "ERROR[bad_m]" in err

    def test_compare_negative_m_rejected(self, capsys):
        # a negative --m is a bad m, as for max-mixing-factor, not a bad
        # monomial; m = 0 holds the constant monomial alone
        code, out, err = invoke(capsys, "compare", "--f", "1", "--g", "1", "--m", "-3")
        assert (code, out) == (1, "") and "ERROR[bad_m]" in err
        assert "bad_monomial" not in err
        assert invoke(capsys, "compare", "--f", "1", "--g", "1", "--m", "0")[:2] == (0, "equal\n")

    def test_compare_bad_monomial(self, capsys):
        code, _, err = invoke(capsys, "compare", "--f", "x9", "--g", "x1", "--m", "4")
        assert code == 1 and "ERROR[bad_monomial]" in err

    def test_is_decreasing(self, capsys, hamming16_file, tmp_path):
        code, out, _ = invoke(capsys, "is-decreasing", "--spec", hamming16_file)
        assert code == 0 and json.loads(out) == {"decreasing": True}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 4, "unfrozen": [3, 15]}))
        code, out, _ = invoke(capsys, "is-decreasing", "--spec", str(path))
        payload = json.loads(out)
        assert code == 0 and payload["decreasing"] is False
        assert "counterexample" in payload

    def test_brute_force_matches_wef(self, capsys, hamming16_file):
        _, direct, _ = invoke(capsys, "wef", "--spec", hamming16_file)
        _, brute, _ = invoke(capsys, "brute-force", "--spec", hamming16_file)
        assert json.loads(direct)["wef"] == json.loads(brute)["wef"]

    def test_dual_round_trip(self, capsys, hamming16_file):
        code, out, _ = invoke(capsys, "dual", "--spec", hamming16_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 4 and len(payload["frozen"]) == 11


class TestEntryPoint:
    def test_parser_built_once_and_reused(self, capsys, hamming16_file):
        # one process, several commands in turn, a usage error among them:
        # each ends as it does on a freshly built parser
        calls = [
            ["wef", "--spec", hamming16_file],
            ["cost", "--spec", hamming16_file],
            ["wef", "--spec", hamming16_file, "--strategy", "fastest"],
            ["wef", "--spec", hamming16_file],
        ]
        fresh = []
        for argv in calls:
            _parser.cache_clear()
            fresh.append(invoke(capsys, *argv)[:2])
        _parser.cache_clear()
        shared = [invoke(capsys, *argv)[:2] for argv in calls]
        assert _parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 1, 0]
        assert shared[0][1] and shared[0] == shared[3]

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polarwd.cli", "max-mixing-factor", "--m", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "11\n"

    def test_package_imports_without_numpy(self):
        code = "import sys, polarwd, polarwd.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "False\n"
