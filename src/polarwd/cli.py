"""Command-line surface: parse code specs, run computations, emit exact JSON.

All counts serialize as decimal strings; JSON numbers cannot faithfully hold
values past 2^53 and code weight counts get much larger.  Exit codes: 0
success, 1 usage error, 2 budget or guard refusal, 3 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from typing import Optional

from .codespec import MAX_JSON_M, CodeSpec, dual_spec, profile, spec_from_json, spec_to_json
from .engine import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    StrategyInadmissible,
    estimate_cost,
    wef_auto,
)
from .monomials import (
    Monomial,
    compare,
    is_decreasing,
    max_mixing_factor,
    max_mixing_factor_rate_half,
)
from .oracle import GuardExceeded, brute_force_wef
from .wef import WeightEnumerator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _load_spec(path: str) -> CodeSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError("spec_unreadable", f"cannot read spec file: {exc}") from exc
    # JSON text is UTF-8, and the decoder recurses once per nesting level
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CliError("spec_malformed_json", f"malformed JSON in {path}: {exc}") from exc
    try:
        return spec_from_json(obj)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise CliError("spec_invalid", f"invalid spec: {exc}") from exc


def _check_out(out: Optional[str]) -> None:
    """Refuse an ``--out`` path that cannot be written before any work
    starts, so a long run's result is not lost; a file the check creates
    is removed again."""

    if not out:
        return
    existed = os.path.lexists(out)
    try:
        with open(out, "a"):
            pass
    except OSError as exc:
        raise CliError("out_unwritable", f"cannot write output file: {exc}") from exc
    if not existed:
        os.remove(out)


def _emit(text: str, out: Optional[str]) -> None:
    """Write a command's output text to ``out``, or to stdout without one.

    ``wef`` and ``brute-force`` pass their enumerator text (``_wef_text``),
    every other command ``_json_text`` of its payload.
    """

    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError("out_unwritable", f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def report(done: int, total: int) -> None:
        print(f"PROGRESS {done}/{total}", file=sys.stderr, flush=True)

    return report


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# one (weight, count) pair of ``_wef_text``, as ``json.dumps`` indents it
_PAIR = '    [\n      %d,\n      "%d"\n    ]'


def _wef_text(spec: CodeSpec, wef: WeightEnumerator, route: str, cosets: int) -> str:
    """``_json_text`` of {"n", "k", "route", "cosets_evaluated", "wef"}, with
    the counts as decimal strings, written directly: with an indent,
    ``json.dumps`` runs its pure-Python encoder, which costs several times
    one format string per pair.  The text is byte for byte the same,
    ``"wef": []`` included."""

    pairs = ",\n".join([_PAIR % pair for pair in wef.items()])
    head = (
        f'{{\n  "n": {spec.n},\n  "k": {spec.k},\n  "route": {json.dumps(route)},\n'
        f'  "cosets_evaluated": "{cosets}",\n  "wef": '
    )
    return head + (f"[\n{pairs}\n  ]" if pairs else "[]") + "\n}\n"


def _cmd_wef(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise CliError("bad_budget", "budget must be non-negative")
    spec = _load_spec(args.spec)
    progress = _progress_printer(args.progress)
    try:
        wef, report = wef_auto(
            spec,
            strategy=args.strategy,
            allow_dual=args.allow_dual,
            budget=args.budget,
            progress=progress,
        )
    except BudgetExceeded as exc:
        raise CliError("budget_exceeded", str(exc), EXIT_BUDGET) from exc
    except StrategyInadmissible as exc:
        raise CliError("strategy_inadmissible", str(exc)) from exc
    except ValueError as exc:
        # e.g. MacWilliams rejecting a dual enumerator the engine produced
        raise CliError("internal_invariant", str(exc), EXIT_INTERNAL) from exc
    _emit(_wef_text(spec, wef, report.route, report.cosets_evaluated), args.out)
    return EXIT_OK


def _cmd_cost(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    payload: dict = {"n": spec.n, "k": spec.k}
    for key, count in asdict(estimate_cost(spec)).items():
        payload[key] = None if count is None else str(count)
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _cmd_mixing_factor(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    print(profile(spec).gamma)
    return EXIT_OK


def _cmd_max_mixing_factor(args: argparse.Namespace) -> int:
    if args.m < 1:
        raise CliError("bad_m", "m must be at least 1")
    # the search grows 2-4x per step of m (2 s at m = 16 on a 2-vCPU VM)
    if args.m > MAX_JSON_M:
        raise CliError("bad_m", f"m={args.m} exceeds the limit of {MAX_JSON_M}")
    if args.rate_half:
        print(max_mixing_factor_rate_half(args.m))
    else:
        print(max_mixing_factor(args.m)[0])
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.m < 0:
        raise CliError("bad_m", "m must be non-negative")
    if args.m > MAX_JSON_M:
        raise CliError("bad_m", f"m={args.m} exceeds the limit of {MAX_JSON_M}")
    try:
        f = Monomial.parse(args.f, args.m)
        g = Monomial.parse(args.g, args.m)
    except ValueError as exc:
        raise CliError("bad_monomial", str(exc)) from exc
    print(compare(f, g).value)
    return EXIT_OK


def _cmd_is_decreasing(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    ok, witness = is_decreasing(spec.unfrozen_monomials())
    payload: dict = {"decreasing": ok}
    if witness is not None:
        payload["counterexample"] = [str(witness[0]), str(witness[1])]
    _emit(_json_text(payload), None)
    return EXIT_OK


def _cmd_brute_force(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    try:
        wef = brute_force_wef(spec)
    except GuardExceeded as exc:
        raise CliError("guard_exceeded", str(exc), EXIT_BUDGET) from exc
    _emit(_wef_text(spec, wef, "brute-force", 0), args.out)
    return EXIT_OK


def _cmd_dual(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    try:
        dual = dual_spec(spec)
    except ValueError as exc:
        raise CliError("spec_invalid", str(exc)) from exc
    _emit(_json_text(spec_to_json(dual)), args.out)
    return EXIT_OK


def _add_spec_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to a JSON code spec")


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write the result here instead of stdout")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every ``run`` can share it."""

    parser = argparse.ArgumentParser(
        prog="polarwd",
        description="Exact weight distributions of polar and decreasing monomial codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wef", help="compute the full weight enumerator")
    _add_spec_arg(p)
    p.add_argument("--strategy", choices=["auto", "direct", "lta"], default="auto")
    p.add_argument(
        "--allow-dual", action="store_true", help="also weigh the strategy's routes on the dual"
    )
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--progress", action="store_true")
    _add_out_arg(p)
    p.set_defaults(func=_cmd_wef)

    p = sub.add_parser("cost", help="predicted coset counts per strategy")
    _add_spec_arg(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("mixing-factor", help="mixing factor of a spec")
    _add_spec_arg(p)
    p.set_defaults(func=_cmd_mixing_factor)

    p = sub.add_parser("max-mixing-factor", help="largest mixing factor at length 2^m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rate-half", action="store_true", help="cap the rate at 1/2")
    p.set_defaults(func=_cmd_max_mixing_factor)

    p = sub.add_parser("compare", help="compare two monomials under the partial order")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("is-decreasing", help="check the unfrozen monomial set")
    _add_spec_arg(p)
    p.set_defaults(func=_cmd_is_decreasing)

    p = sub.add_parser("brute-force", help="oracle enumeration of all codewords")
    _add_spec_arg(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_brute_force)

    p = sub.add_parser("dual", help="emit the dual of a plain spec as JSON")
    _add_spec_arg(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_dual)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except CliError as exc:
        print(f"ERROR[{exc.code}] {exc}", file=sys.stderr)
        return exc.exit_code
    except AssertionError as exc:
        print(f"ERROR[internal_invariant] {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
