"""Full-code weight distributions: direct coset enumeration, the automorphism-
reduced recursion for decreasing monomial codes, cost estimates, and automatic
strategy selection (including the dual/MacWilliams detour).

Both routes write the code as a list of affine prefix sets, each with a
multiplier, and one loop sums them with ``coset.affine_sum``, reading each
set's coset count off its sum to check the route's prediction; that loop
also gives a rate-one code its closed form.  The direct route covers one
coset per assignment of the red bits (2^gamma of them).  Every freeze
constraint is affine, so their prefixes form one affine set with
multiplier 1, built in one causal pass that carries each bit as its
offset and red-bit coefficients and fills the set's columns (the offset and
one basis vector per red bit) as it sets bits; the work grows with how much
each level mixes the two halves of the codeword, not with 2^gamma.
The reduced route repeatedly freezes the first unfrozen row f: the subsets
where f is frozen to 1 and the single-shift-related red rows take all
values form one orbit of the lower-triangular affine group, so a single
coset enumerator stands for 2^{|S|} of them.  Each orbit's representatives
are again one affine prefix set (offset 1 << f, spanned by the unit vectors
of its free red rows), with multiplier 2^{|S|}, and the all-zero coset
completes the list.  Evaluation is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .codespec import CodeSpec, Profile, dual_spec, profile
from .coset import CosetCache, affine_sum, calc_a  # calc_a: perfbench's self-test reads it here
from .wef import WeightEnumerator, macwilliams

DEFAULT_BUDGET = 1 << 28

ProgressFn = Callable[[int, int], None]
# an affine set of prefixes, offset + span(basis), and the times it counts
PrefixSet = tuple[int, Sequence[int], int]


class BudgetExceeded(RuntimeError):
    """The requested computation needs more coset evaluations than allowed."""


class StrategyInadmissible(ValueError):
    """The requested strategy is unknown or cannot run on this spec."""


@dataclass
class EngineStats:
    """Mutable counters shared across one computation."""

    cosets_evaluated: int = 0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted coset-evaluation counts for each admissible strategy."""

    direct_cosets: int
    lta_cosets: Optional[int] = None
    dual_direct_cosets: Optional[int] = None
    dual_lta_cosets: Optional[int] = None


@dataclass(frozen=True)
class Report:
    """What wef_auto actually did."""

    route: str
    n: int
    k: int
    predicted_cosets: int
    cosets_evaluated: int


def _lta_route(spec: CodeSpec, prof: Profile) -> Optional[tuple[int, Iterator[PrefixSet]]]:
    """The reduced route on ``spec``: None unless the spec is plain and
    decreasing, else its coset count and its (offset, basis, multiplier)
    sets.

    Each orbit of the spec's split (``CodeSpec._orbits``, worked out once
    per spec) is one set, offset 1 << f plus the span of its free red rows'
    unit vectors, counted 2^{|S|} times; the all-zero coset (every red row
    frozen to 0, and u_s = 0 because the spec is plain) completes the
    list.  The count is read off the split, 2^{free rows} per orbit plus
    one; the sets are yielded, so that a caller that only wants the count
    (``estimate_cost``) builds none and ``_sum_sets`` builds them after its
    budget check.  A rate-one code has no sets and no cosets.
    """

    if not (spec.is_plain and spec.is_decreasing_code()):
        return None
    if prof.s is None:
        return 0, iter(())
    orbits = spec._orbits
    return sum(1 << len(free) for _, free, _ in orbits) + 1, _lta_sets(orbits)


def _lta_sets(orbits: Sequence[tuple[int, tuple[int, ...], int]]) -> Iterator[PrefixSet]:
    """The sets of ``_lta_route``, one per orbit, then the all-zero coset."""

    for f, free, shifts in orbits:
        yield 1 << f, [1 << i for i in free], 1 << shifts
    yield 0, (), 1


def _direct_cosets(prof: Profile) -> int:
    """The direct route's coset count: one per red-bit assignment, none on
    a rate-one code, which has no frozen bit and so no cosets."""

    return 0 if prof.s is None else 1 << prof.gamma


def estimate_cost(spec: CodeSpec) -> CostEstimate:
    """Coset counts for direct, reduced, and dual strategies, where defined.

    The reduced counts come from ``_lta_route``, whose sets are never
    started here; the dual is built once per spec (``dual_spec``) and the
    route that runs on it reuses it.
    """

    counts: list[Optional[int]] = []
    for target in (spec, dual_spec(spec)) if spec.is_plain else (spec,):
        prof = profile(target)
        route = _lta_route(target, prof)
        counts += [_direct_cosets(prof), None if route is None else route[0]]
    return CostEstimate(*counts)


def _sum_sets(
    spec: CodeSpec,
    prof: Profile,
    route: str,
    predicted: int,
    sets: Iterable[PrefixSet],
    budget: int,
    cache: Optional[CosetCache],
    stats: Optional[EngineStats],
    progress: Optional[ProgressFn],
) -> WeightEnumerator:
    """Sum of a route's affine sets of (s+1)-bit prefixes, each (offset,
    basis, multiplier) counted multiplier times; ``sets`` is read only once
    the budget check passes.

    A rate-one code has no frozen bit and falls outside the coset
    decomposition: it gets the closed-form full-space enumerator, before
    the budget check and with no coset counted.  Otherwise the cosets of
    each set are counted off its sum (a coset with an (s+1)-bit prefix
    holds 2^{n-1-s} words); raises AssertionError if their total differs
    from ``predicted``, or if the scaled sum does not count 2^k codewords.
    """

    if prof.s is None:
        return WeightEnumerator.binomial(spec.n)
    if predicted > budget:
        raise BudgetExceeded(f"{route} route needs {predicted} cosets, budget is {budget}")
    if cache is None:
        cache = CosetCache()
    tail_bits = spec.n - 1 - prof.s  # information bits every coset leaves free
    acc = None
    evaluated = 0
    for offset, basis, multiplier in sets:
        term = affine_sum(spec.n, prof.s + 1, offset, basis, cache)
        evaluated += term.eval_at_one() >> tail_bits
        if multiplier > 1:
            term = term.scale(multiplier)
        acc = term if acc is None else acc + term
        if progress is not None:
            progress(evaluated, predicted)
    if stats is not None:
        stats.cosets_evaluated += evaluated
    if evaluated != predicted:
        raise AssertionError(f"{route} route evaluated {evaluated} cosets, predicted {predicted}")
    # the coset count is read before scaling, so it misses a wrong
    # multiplier; the code's k information bits are its red and tail bits
    k = prof.gamma + tail_bits
    if acc.eval_at_one() != 1 << k:
        raise AssertionError(f"{route} route sums to {acc.eval_at_one()}, expected 2^{k}")
    return acc


def _direct_sets(spec: CodeSpec, prof: Profile) -> Iterator[PrefixSet]:
    """The direct route's one set, built in one causal pass over u_0..u_s.

    Each u_i is an int over gamma + 1 columns: red bit r is 1 << (r + 1),
    and a frozen bit resolves its constraint on these ints, so its constant
    lands in bit 0.  Every freeze constraint is affine, so column 0 over
    all u_i is the offset and column r + 1 is basis vector r.  The pass
    fills the columns as it goes: red bit r appends column r + 1 as
    1 << i, and a frozen u_i sets bit i of each column c whose bit is set
    in u_i, so the build costs one step per set bit of the u_i.  On a spec
    with no support the pass is read off the cached scan of its constants
    (``CodeSpec._constants``): each frozen u_i is its constant, so the
    offset is the constants' mask up to bit s and basis vector r is
    1 << red[r], with no constraint resolved.  Yielded, so that it is
    built after the budget check.
    """

    constants, supported = spec._constants
    if not supported:
        yield constants & (1 << prof.s + 1) - 1, [1 << i for i in prof.red], 1
        return
    u: list[int] = []
    cols = [0]  # cols[0] is the offset, cols[r + 1] basis vector r
    for i, st in enumerate(spec.statuses[: prof.s + 1]):
        if st is None:
            u.append(1 << len(cols))
            cols.append(1 << i)
        else:
            x = st.value(u)
            u.append(x)
            while x:
                low = x & -x
                cols[low.bit_length() - 1] |= 1 << i
                x ^= low
    offset, *basis = cols
    yield offset, basis, 1


def wef_direct(
    spec: CodeSpec,
    *,
    cache: Optional[CosetCache] = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    stats: Optional[EngineStats] = None,
    progress: Optional[ProgressFn] = None,
) -> WeightEnumerator:
    """Weight enumerator as one sum over the 2^gamma red-bit assignments.

    The prefixes of all assignments form one affine set (``_direct_sets``),
    and ``affine_sum`` adds their cosets in one recursion.  The cosets are
    counted off the sum; raises AssertionError if they are not 2^gamma (0
    on a rate-one code).
    ``threads`` is accepted and ignored, for callers written against the
    old thread pool: evaluation is single-threaded.
    """

    prof = profile(spec)
    return _sum_sets(
        spec, prof, "direct", _direct_cosets(prof), _direct_sets(spec, prof),
        budget, cache, stats, progress,
    )


def wef_lta(
    spec: CodeSpec,
    *,
    cache: Optional[CosetCache] = None,
    budget: int = DEFAULT_BUDGET,
    stats: Optional[EngineStats] = None,
    progress: Optional[ProgressFn] = None,
) -> WeightEnumerator:
    """Reduced-complexity enumerator for plain decreasing monomial codes:
    the sum of the sets of ``_lta_route``.  Raises StrategyInadmissible on
    any other spec.  The cosets are counted off the sums; raises
    AssertionError if their total differs from the prediction.
    """

    prof = profile(spec)
    route = _lta_route(spec, prof)
    if route is None:
        raise StrategyInadmissible("the reduced route requires a plain decreasing spec")
    return _sum_sets(spec, prof, "reduced", *route, budget, cache, stats, progress)


def wef_auto(
    spec: CodeSpec,
    strategy: str = "auto",
    allow_dual: bool = True,
    *,
    budget: int = DEFAULT_BUDGET,
    progress: Optional[ProgressFn] = None,
) -> tuple[WeightEnumerator, Report]:
    """Run the cheapest admissible route and report what was chosen.

    Candidate routes are direct, reduced, and (when the spec is plain and
    duals are allowed) the same two on the dual followed by the MacWilliams
    transform.  An explicit ``strategy`` keeps the routes of its kind, so
    with duals allowed "direct" also weighs dual+direct and "lta" dual+lta.
    All routes produce the identical enumerator; raises AssertionError if it
    does not count 2^k codewords.
    """

    if strategy not in ("auto", "direct", "lta"):
        raise StrategyInadmissible(f"unknown strategy {strategy!r}")
    cost = estimate_cost(spec)
    if strategy == "lta" and cost.lta_cosets is None:
        raise StrategyInadmissible("the reduced route is not admissible for this spec")
    # in tie order: min keeps the first of equal counts, so ties prefer the
    # simpler route (no dual detour, no MacWilliams step)
    routes = {"lta": cost.lta_cosets, "direct": cost.direct_cosets}
    if allow_dual:
        routes.update({"dual+lta": cost.dual_lta_cosets, "dual+direct": cost.dual_direct_cosets})
    # a route's kind is its name's ending: "dual+lta" is an lta route
    kinds = ("lta", "direct") if strategy == "auto" else strategy
    candidates = {r: c for r, c in routes.items() if c is not None and r.endswith(kinds)}
    admissible = {r: c for r, c in candidates.items() if c <= budget}
    if not admissible:
        raise BudgetExceeded(
            f"no admissible route within budget {budget}; cheapest candidate "
            f"needs {min(candidates.values())} cosets"
        )
    route, predicted = min(admissible.items(), key=lambda rc: rc[1])

    stats = EngineStats()
    dual = route.startswith("dual+")
    target = dual_spec(spec) if dual else spec
    run = wef_lta if route.endswith("lta") else wef_direct
    wef = run(target, budget=budget, stats=stats, progress=progress)
    if dual:
        wef = macwilliams(wef, spec.n, target.k)
    if wef.eval_at_one() != 1 << spec.k:
        raise AssertionError(f"enumerator sums to {wef.eval_at_one()}, expected 2^{spec.k}")
    report = Report(
        route=route,
        n=spec.n,
        k=spec.k,
        predicted_cosets=predicted,
        cosets_evaluated=stats.cosets_evaluated,
    )
    return wef, report
