import random

import pytest

from polarwd import (
    CosetCache,
    WeightEnumerator,
    brute_force_wef,
    dual_spec,
    estimate_cost,
    from_bhattacharyya_bec,
    from_rm,
    from_unfrozen_set,
    macwilliams,
    wef_auto,
    wef_direct,
    wef_lta,
)
from polarwd.codespec import (
    CodeSpec,
    FreezeConstraint,
    from_frozen_set,
    from_generator_matrix,
    pac_spec,
    profile,
)
from polarwd.monomials import Monomial, single_shift_le
from polarwd import engine
from polarwd.coset import calc_a
from polarwd.engine import (
    BudgetExceeded,
    EngineStats,
    StrategyInadmissible,
    _direct_sets,
)

from conftest import HAMMING16_WEF, POLAR128_UNFROZEN, POLAR128_WD


def _coset_prefix(spec, prof, assignment):
    """Reference prefix u_0..u_s of one red-bit assignment, bit i = u_i.

    The red bits take the assignment's bits (first red bit is the most
    significant); frozen bits, u_s included, resolve their constraints
    causally.
    """

    u = []
    red_pos = 0
    for i in range(prof.s + 1):
        st = spec.statuses[i]
        if st is None:
            u.append(assignment >> (prof.gamma - 1 - red_pos) & 1)
            red_pos += 1
        else:
            u.append(st.value(u))
    return sum(b << i for i, b in enumerate(u))


def _transposed_set(spec, prof):
    """Reference (offset, basis) of the direct route: the causal pass over
    u_0..u_s with red bit r as 1 << (r + 1), then column c of the u_i read
    off as one int per column (column 0 the offset, column r + 1 basis
    vector r)."""

    u = []
    red = 0
    for st in spec.statuses[: prof.s + 1]:
        if st is None:
            red += 1
            u.append(1 << red)
        else:
            u.append(st.value(u))
    offset, *basis = (sum((x >> c & 1) << i for i, x in enumerate(u)) for c in range(red + 1))
    return offset, basis


# the six taps of the benchmark's PAC(64) family, over the RM(2,6) profile
PAC64_TAPS = ("1011011", "1101001", "1110011", "1110001", "1011001", "1101011")


def _pin_red_rows(spec, bits, value):
    """Freeze the first ``bits`` red rows to the bits of ``value``, most
    significant first, one ``with_frozen`` call per row."""

    red = profile(spec).red
    for j in range(bits):
        spec = spec.with_frozen(red[j], value >> (bits - 1 - j) & 1)
    return spec


def _direct_constraint_calls(spec, monkeypatch):
    """``wef_direct`` on ``spec`` with the target of every
    ``FreezeConstraint.value`` call recorded: (targets, enumerator, stats)."""

    calls = []
    value = FreezeConstraint.value

    def counting(self, u):
        calls.append(self.target)
        return value(self, u)

    monkeypatch.setattr(FreezeConstraint, "value", counting)
    stats = EngineStats()
    return calls, wef_direct(spec, stats=stats), stats


class TestDirect:
    def test_rate_zero(self):
        spec = from_unfrozen_set(2, [])
        assert wef_direct(spec) == WeightEnumerator.one()

    def test_rate_one(self):
        spec = from_frozen_set(3, [])
        assert wef_direct(spec) == WeightEnumerator.binomial(8)

    def test_example_code(self, hamming16_spec):
        assert wef_direct(hamming16_spec) == HAMMING16_WEF

    def test_dynamic_spec(self):
        # u_3 carries a parity of two earlier frozen-to-zero bits plus offset 1
        spec = from_unfrozen_set(3, [3, 5, 6, 7]).with_frozen(3, 1, support=[1, 2])
        assert wef_direct(spec) == brute_force_wef(spec)

    def test_stats_count_matches_gamma(self, hamming16_spec):
        stats = EngineStats()
        wef_direct(hamming16_spec, stats=stats)
        assert stats.cosets_evaluated == 16

    def test_budget_refusal(self, hamming16_spec):
        with pytest.raises(BudgetExceeded):
            wef_direct(hamming16_spec, budget=15)

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_thread_count_never_changes_result(self, hamming16_spec, threads):
        assert wef_direct(hamming16_spec, threads=threads) == HAMMING16_WEF

    def test_builds_prefix_set_in_one_pass(self, hamming16_spec, monkeypatch):
        # a spec with no support reads its set off the cached constants
        # mask: no frozen bit resolves its constraint
        calls, wef, stats = _direct_constraint_calls(hamming16_spec, monkeypatch)
        assert wef == HAMMING16_WEF
        assert calls == []
        assert stats.cosets_evaluated == 16

    def test_prefix_set_matches_reference_prefixes(self):
        # the one-pass set holds exactly the reference prefixes of all
        # red-bit assignments, on dynamic specs whose constraints carry
        # constants
        rng = random.Random(12)
        for _ in range(20):
            unfrozen = set(rng.sample(range(16), rng.randrange(3, 10)))
            statuses = [
                None if i in unfrozen else FreezeConstraint(
                    i, frozenset(j for j in range(i) if rng.random() < 0.3), rng.randrange(2)
                )
                for i in range(16)
            ]
            spec = CodeSpec(4, tuple(statuses))
            prof = profile(spec)
            ((offset, basis, multiplier),) = _direct_sets(spec, prof)
            span = {offset}
            for vector in basis:
                span |= {p ^ vector for p in span}
            assert multiplier == 1 and len(span) == 1 << prof.gamma
            assert span == {_coset_prefix(spec, prof, a) for a in range(1 << prof.gamma)}

    def test_prefix_set_is_the_transposed_pass(self, polar128_spec):
        # not only the span: the offset and every basis vector, in order,
        # are the columns of the causal pass (_transposed_set), so every
        # plan built on the set stays the same
        rng = random.Random(24)
        specs = []
        for _ in range(40):
            m = rng.randrange(2, 8)
            n = 1 << m
            unfrozen = set(rng.sample(range(n), rng.randrange(1, n)))
            statuses = [
                None if i in unfrozen else FreezeConstraint(
                    i, frozenset(j for j in range(i) if rng.random() < 0.2), rng.randrange(2)
                )
                for i in range(n)
            ]
            specs.append(CodeSpec(m, tuple(statuses)))
        pacs = [pac_spec(6, from_rm(2, 6).unfrozen, [int(t) for t in taps]) for taps in PAC64_TAPS]
        generated = []
        for m, k in ((3, 4), (4, 7), (5, 16), (6, 20)):
            while True:
                gen = [[rng.randrange(2) for _ in range(1 << m)] for _ in range(k)]
                try:
                    generated.append(from_generator_matrix(gen))
                    break
                except ValueError:  # rank below k: draw again
                    continue
        # pinned the way the benchmark pins its units
        pinned = [
            _pin_red_rows(base, bits, rng.getrandbits(bits))
            for base in (polar128_spec, pacs[0], generated[-1])
            for bits in (1, 5, 12)
        ]
        specs += pacs + generated + pinned
        for spec in specs:
            prof = profile(spec)
            if prof.s is None:
                continue
            ((offset, basis, multiplier),) = _direct_sets(spec, prof)
            assert multiplier == 1
            assert (offset, basis) == _transposed_set(spec, prof)

    def test_support_free_set_is_the_transposed_pass(self, monkeypatch):
        # a spec with constants but no support reads its set off the
        # constants mask: the same offset and basis, in order, as the causal
        # pass, with no constraint resolved
        rng = random.Random(28)
        specs = []
        for m in range(2, 8):
            n = 1 << m
            for _ in range(8):
                unfrozen = set(rng.sample(range(n), rng.randrange(1, n)))
                statuses = [
                    None if i in unfrozen else FreezeConstraint(i, constant=rng.randrange(2))
                    for i in range(n)
                ]
                specs.append(CodeSpec(m, tuple(statuses)))
        monkeypatch.setattr(FreezeConstraint, "value", lambda *_: pytest.fail("resolved"))
        sets = [list(_direct_sets(spec, profile(spec))) for spec in specs]
        monkeypatch.undo()
        for spec, ((offset, basis, multiplier),) in zip(specs, sets):
            assert multiplier == 1
            assert (offset, basis) == _transposed_set(spec, profile(spec))

    @pytest.mark.parametrize("code", ["pac", "pinned polar"])
    def test_constraints_resolved_once_per_frozen_bit(self, code, polar128_spec, monkeypatch):
        # the direct route calls FreezeConstraint.value once per frozen
        # index <= s on a spec with a support, and never on one without
        # (pinned red rows carry constants only), which perfbench reads as
        # codespec.constraint_value_calls
        if code == "pac":
            spec = pac_spec(5, from_rm(2, 5).unfrozen, [1, 0, 1, 1, 0, 1, 1])
        else:
            spec = _pin_red_rows(polar128_spec, profile(polar128_spec).gamma - 8, 0x5A5A5A5A5A)
        s = profile(spec).s
        calls, wef, stats = _direct_constraint_calls(spec, monkeypatch)
        assert calls == ([i for i in spec.frozen if i <= s] if code == "pac" else [])
        assert stats.cosets_evaluated == 1 << profile(spec).gamma
        assert wef.eval_at_one() == 1 << spec.k

    def test_evaluated_cosets_checked_against_prediction(self, hamming16_spec, monkeypatch):
        # a sum that misses its cosets breaks the count read off it
        monkeypatch.setattr(
            "polarwd.engine.affine_sum", lambda *_: WeightEnumerator.zero()
        )
        with pytest.raises(AssertionError, match="predicted 16"):
            wef_direct(hamming16_spec)

    def test_progress_reported_once(self, hamming16_spec):
        seen = []
        wef_direct(hamming16_spec, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(16, 16)]

    def test_head_free_box_without_kernels(self, polar128_spec):
        # orbit u_30 of the (128,64) code: its first red rows mix the two
        # halves at every top-level dimension, so no grouping applies there
        red = profile(polar128_spec).red
        free = next(fr for f, fr, _ in polar128_spec._orbits if f == 30)
        orbit = polar128_spec.with_frozen(30, 1)
        for i in red:
            if i != 30 and i not in free:
                orbit = orbit.with_frozen(i, 0)
        tail = profile(orbit).red[10:]
        box = orbit
        for j, i in enumerate(tail):
            box = box.with_frozen(i, 0x2D5 >> j & 1)
        prof = profile(box)
        assert prof.gamma == 10
        cache = CosetCache()
        expected = WeightEnumerator.zero()
        for assignment in range(1 << 10):
            p = _coset_prefix(box, prof, assignment)
            bits = [p >> i & 1 for i in range(prof.s)]
            expected = expected + calc_a(128, bits, cache)[p >> prof.s & 1]
        assert wef_direct(box, cache=CosetCache()) == expected


class TestLta:
    def test_example_code(self, hamming16_spec):
        assert wef_lta(hamming16_spec) == HAMMING16_WEF

    def test_rm_1_3(self):
        assert wef_lta(from_rm(1, 3)) == WeightEnumerator(
            [1, 0, 0, 0, 14, 0, 0, 0, 1]
        )

    def test_rate_one(self):
        assert wef_lta(from_rm(3, 3)) == WeightEnumerator.binomial(8)

    def test_rate_zero(self):
        assert wef_lta(from_unfrozen_set(3, [])) == WeightEnumerator.one()

    def test_coset_count_matches_estimate(self, hamming16_spec):
        stats = EngineStats()
        wef_lta(hamming16_spec, stats=stats)
        assert stats.cosets_evaluated == 5
        assert estimate_cost(hamming16_spec).lta_cosets == 5

    def test_evaluated_cosets_checked_against_prediction(self, hamming16_spec, monkeypatch):
        # an orbit sum that misses its cosets breaks the tally read off it
        monkeypatch.setattr(
            "polarwd.engine.affine_sum", lambda *_: WeightEnumerator.zero()
        )
        with pytest.raises(AssertionError, match="predicted 5"):
            wef_lta(hamming16_spec)

    def test_scaled_total_checked(self, hamming16_spec, monkeypatch):
        # a doubled orbit multiplier leaves the coset count (read before
        # scaling) intact but not the 2^k total
        route = engine._lta_route

        def doubled(spec, prof):
            count, sets = route(spec, prof)
            (offset, basis, multiplier), *rest = sets
            return count, [(offset, basis, 2 * multiplier), *rest]

        monkeypatch.setattr(engine, "_lta_route", doubled)
        with pytest.raises(AssertionError, match="expected 2\\^11"):
            wef_lta(hamming16_spec)

    def test_non_decreasing_rejected(self):
        spec = from_unfrozen_set(4, [3, 15])  # x2x3 without its predecessors
        with pytest.raises(ValueError):
            wef_lta(spec)

    def test_non_decreasing_rejected_after_estimate(self):
        # the spec remembers the check, and still refuses
        spec = from_unfrozen_set(4, [3, 15])
        assert estimate_cost(spec).lta_cosets is None
        with pytest.raises(StrategyInadmissible):
            wef_lta(spec)

    def test_dynamic_rejected(self):
        spec = from_unfrozen_set(2, [1, 2, 3]).with_frozen(1, 0, support=[0])
        # index 1 was unfrozen; now dynamically frozen -> not plain
        with pytest.raises(ValueError):
            wef_lta(spec)

    def test_orbits_follow_single_shift_definition(self, polar128_spec):
        # S of row f is every red row below f that is single-shift below f;
        # the split tests it on the bits of i ^ f, so random red lists,
        # decreasing or not, are checked too (n - 1 stays frozen, so a
        # sample of the other rows is the profile's red rows)
        specs = [polar128_spec]
        specs += [from_rm(r, m) for m in range(1, 8) for r in range(m + 1)]
        specs += [from_bhattacharyya_bec(m, k, 0.5) for m in (5, 6, 8) for k in (5, 1 << m - 1)]
        specs += [dual_spec(spec) for spec in specs]
        rng = random.Random(23)
        for _ in range(400):
            rows = range((1 << rng.randint(1, 8)) - 1)
            red = rng.sample(rows, rng.randint(0, min(len(rows), 48)))
            specs.append(from_unfrozen_set(len(rows).bit_length(), red))
        for spec in specs:
            red = profile(spec).red
            monos = [Monomial.from_row_index(i, spec.m) for i in red]
            expected = []
            for pos, f in enumerate(red):
                below = range(pos + 1, len(red))
                free = tuple(red[j] for j in below if not single_shift_le(monos[j], monos[pos]))
                expected.append((f, free, len(below) - len(free)))
            assert spec._orbits == tuple(expected), (spec.m, red)

    def test_polar128_within_one_cache(self, polar128_spec):
        # summed by natural halves only, the orbit u30 alone filled the 2^20
        # sum table; split into quarter blocks, the whole run leaves it
        # mostly empty
        cache = CosetCache()
        got = wef_lta(polar128_spec, cache=cache)
        assert dict(got.items()) == POLAR128_WD
        assert len(cache) < cache.max_entries

    @pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (1, 4), (2, 5)])
    def test_matches_direct_on_reed_muller(self, r, m):
        spec = from_rm(r, m)
        assert wef_lta(spec) == wef_direct(spec)


class TestEstimateCost:
    def test_gamma_zero_direct_one(self):
        spec = from_unfrozen_set(3, [7])
        assert estimate_cost(spec).direct_cosets == 1

    def test_rate_one_direct_zero(self):
        # a rate-one code has no coset, and neither has a rate-zero code's dual
        assert estimate_cost(from_frozen_set(3, [])).direct_cosets == 0
        assert estimate_cost(from_frozen_set(3, range(8))).dual_direct_cosets == 0

    def test_example_code(self, hamming16_spec):
        cost = estimate_cost(hamming16_spec)
        assert cost.direct_cosets == 16
        assert cost.lta_cosets == 5
        assert cost.dual_direct_cosets == 4
        assert cost.dual_lta_cosets == 3

    def test_polar128_spec(self, polar128_spec):
        cost = estimate_cost(polar128_spec)
        assert cost.direct_cosets == 1 << 37
        assert cost.lta_cosets == 60752896

    def test_rm_3_7(self):
        assert estimate_cost(from_rm(3, 7)).lta_cosets == 49761365064

    def test_non_decreasing_has_no_lta_route(self):
        assert estimate_cost(from_unfrozen_set(4, [3, 15])).lta_cosets is None


class TestAuto:
    def test_rm_1_4_value(self):
        wef, report = wef_auto(from_rm(1, 4))
        assert wef == WeightEnumerator([1] + [0] * 7 + [30] + [0] * 7 + [1])
        assert report.n == 16 and report.k == 5

    def test_dual_route_equals_direct(self, hamming16_spec):
        with_dual, r1 = wef_auto(hamming16_spec, allow_dual=True)
        direct_only, r2 = wef_auto(hamming16_spec, strategy="direct", allow_dual=False)
        assert with_dual == direct_only == HAMMING16_WEF
        assert r1.route.startswith("dual")
        assert r2.route == "direct"

    def test_full128_auto_picks_lta(self, polar128_spec):
        # decided from cost alone; nothing is evaluated here
        cost = estimate_cost(polar128_spec)
        candidates = {
            "direct": cost.direct_cosets,
            "lta": cost.lta_cosets,
            "dual+direct": cost.dual_direct_cosets,
            "dual+lta": cost.dual_lta_cosets,
        }
        assert min(candidates, key=lambda r: (candidates[r], r != "lta")) == "lta"

    def test_budget_refusal(self, hamming16_spec):
        with pytest.raises(BudgetExceeded):
            wef_auto(hamming16_spec, budget=2)

    def test_explicit_lta_on_non_decreasing_rejected(self):
        with pytest.raises(ValueError):
            wef_auto(from_unfrozen_set(4, [3, 15]), strategy="lta")

    def test_unknown_strategy_rejected(self, hamming16_spec):
        with pytest.raises(ValueError):
            wef_auto(hamming16_spec, strategy="fastest")

    def test_cardinality_checked(self, hamming16_spec, monkeypatch):
        monkeypatch.setattr(
            "polarwd.engine.wef_direct", lambda spec, **_: WeightEnumerator([1, 1])
        )
        with pytest.raises(AssertionError, match="expected 2\\^11"):
            wef_auto(hamming16_spec, strategy="direct", allow_dual=False)

    @pytest.mark.parametrize(
        "strategy, route, predicted", [("direct", "dual+direct", 4), ("lta", "dual+lta", 3)]
    )
    def test_explicit_strategy_weighs_its_dual_route(
        self, hamming16_spec, strategy, route, predicted
    ):
        # Hamming(16,11) costs 16 cosets direct and 5 reduced; its dual, 4 and 3
        wef, report = wef_auto(hamming16_spec, strategy=strategy, allow_dual=True)
        assert (report.route, report.predicted_cosets) == (route, predicted)
        assert wef == HAMMING16_WEF

    def test_report_counts(self, hamming16_spec):
        _, report = wef_auto(hamming16_spec, strategy="lta", allow_dual=False)
        assert report.predicted_cosets == report.cosets_evaluated == 5

    @pytest.mark.parametrize("allow_dual", [False, True])
    @pytest.mark.parametrize(
        "frozen, routes",
        [
            # rate one: no frozen bit and so no coset on any direct or
            # reduced route; ties go to lta
            ([], {"auto": "lta", "direct": "direct", "lta": "lta"}),
            # rate zero: one coset, none on the dual, which has rate one;
            # ties go to lta, then dual+lta, and an explicit strategy takes
            # its dual route when duals are allowed
            (
                range(8),
                {
                    "auto": ("lta", "dual+lta"),
                    "direct": ("direct", "dual+direct"),
                    "lta": ("lta", "dual+lta"),
                },
            ),
        ],
        ids=["rate-one", "rate-zero"],
    )
    def test_degenerate_rates_predict_what_runs(self, frozen, routes, allow_dual):
        spec = from_frozen_set(3, frozen)
        for strategy, route in routes.items():
            if isinstance(route, tuple):
                route = route[allow_dual]
            wef, report = wef_auto(spec, strategy, allow_dual)
            assert report.route == route
            assert report.predicted_cosets == report.cosets_evaluated
            assert wef.eval_at_one() == 1 << spec.k


class TestRouteEquivalence:
    def test_bec_6_32_above_oracle_guard(self):
        # k = 32 is past the brute-force guard (k <= 24): the routes check each other
        spec = from_bhattacharyya_bec(6, 32, 0.5)
        dual = dual_spec(spec)
        lta = wef_lta(spec)
        assert wef_direct(spec) == lta
        assert macwilliams(wef_lta(dual), spec.n, dual.k) == lta
        assert lta.eval_at_one() == 1 << 32

    @pytest.mark.parametrize("k", [24, 40, 64, 107])
    def test_four_routes_agree_at_n128(self, k):
        # budget lifted: the direct route of k = 107 covers 2^44 cosets and
        # still takes a fraction of a second
        spec = from_bhattacharyya_bec(7, k, 0.5)
        dual = dual_spec(spec)
        lifted = 1 << 64
        lta = wef_lta(spec, budget=lifted)
        assert wef_direct(spec, budget=lifted) == lta
        assert macwilliams(wef_lta(dual, budget=lifted), spec.n, dual.k) == lta
        assert macwilliams(wef_direct(dual, budget=lifted), spec.n, dual.k) == lta
        assert lta.eval_at_one() == 1 << k
        # macwilliams raises unless its input is a linear code's enumerator
        assert macwilliams(lta, spec.n, k).eval_at_one() == 1 << dual.k

    def test_direct_and_lta_agree_at_n256(self):
        # past the paper's n = 128, with no reference values: the two routes
        # check each other, and macwilliams checks that the result is a
        # linear code's enumerator; the lifted budget admits direct's 2^37
        # and lta's 3.0e9 predicted cosets
        spec = from_bhattacharyya_bec(8, 64, 0.5)
        lifted = 1 << 64
        lta = wef_lta(spec, budget=lifted)
        assert wef_direct(spec, budget=lifted) == lta
        assert lta.eval_at_one() == 1 << 64 and lta.coeffs[0] == 1
        assert macwilliams(lta, spec.n, 64).eval_at_one() == 1 << spec.n - 64

    def test_direct_bec_8_128_at_n256(self):
        # no other route finishes quickly here (lta has 1.2e17 predicted
        # cosets and a far larger plan), so the internal checks stand
        # alone: 2^128 words, A_0 = 1, macwilliams finds a linear code's
        # enumerator; the lifted budget admits direct's 5.9e20 cosets
        spec = from_bhattacharyya_bec(8, 128, 0.5)
        direct = wef_direct(spec, budget=1 << 256)
        assert direct.eval_at_one() == 1 << 128 and direct.coeffs[0] == 1
        d_min = next(w for w, count in enumerate(direct.coeffs) if w and count)
        assert (d_min, direct.coeffs[d_min]) == (8, 352)
        assert macwilliams(direct, spec.n, 128).eval_at_one() == 1 << 128

    def test_direct_and_dual_direct_agree_at_n256(self):
        # the direct route on bec(8,192) and on its dual (k = 64), mapped
        # back by macwilliams, check each other; the lifted budget admits
        # both routes' predicted cosets
        spec = from_bhattacharyya_bec(8, 192, 0.5)
        dual = dual_spec(spec)
        lifted = 1 << 256
        direct = wef_direct(spec, budget=lifted)
        assert dual.k == 64
        assert macwilliams(wef_direct(dual, budget=lifted), spec.n, dual.k) == direct
        assert direct.eval_at_one() == 1 << 192 and direct.coeffs[0] == 1
        d_min = next(w for w, count in enumerate(direct.coeffs) if w and count)
        assert (d_min, direct.coeffs[d_min]) == (4, 192)

    def test_random_decreasing_specs(self):
        rng = random.Random(2024)
        from polarwd import Monomial, from_unfrozen_set, single_shift_le

        for _ in range(20):
            m = rng.choice([3, 4, 5])
            # grow a random downward-closed monomial set
            masks = {0}  # the constant monomial (row n-1) anchors every code here
            candidates = list(range(1 << m))
            rng.shuffle(candidates)
            for mask in candidates[: rng.randrange(1, min(1 << m, 18))]:
                closure = [Monomial(mask, m)]
                while closure:
                    f = closure.pop()
                    if f.mask in masks:
                        continue
                    masks.add(f.mask)
                    closure.extend(
                        Monomial(x, m) for x in range(1 << m) if single_shift_le(Monomial(x, m), f)
                    )
            unfrozen = [Monomial(mask, m).row_index for mask in masks]
            spec = from_unfrozen_set(m, unfrozen)
            if spec.k > 16:
                continue
            cache = CosetCache()
            direct = wef_direct(spec, cache=cache)
            assert wef_lta(spec, cache=cache) == direct
            assert brute_force_wef(spec) == direct
