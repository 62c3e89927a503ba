import functools
import random

import numpy as np
import pytest

from polarwd import (
    CodeSpec,
    FreezeConstraint,
    from_bhattacharyya_bec,
    from_rm,
    from_unfrozen_set,
    pac_spec,
    profile,
    dual_spec,
    spec_from_json,
)
from polarwd.codespec import (
    bec_bhattacharyya,
    from_frozen_set,
    from_generator_matrix,
    spec_to_json,
)
from polarwd.oracle import codewords

from conftest import HAMMING16_UNFROZEN, generator_matrix


class TestFreezeConstraint:
    def test_plain(self):
        c = FreezeConstraint(3)
        assert c.is_plain and c.value([1, 1, 1]) == 0

    def test_dynamic_value(self):
        c = FreezeConstraint(3, frozenset({0, 2}), 1)
        assert c.value([1, 0, 1]) == 1
        assert c.value([1, 0, 0]) == 0

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            FreezeConstraint(2, frozenset({2}))


class TestProfile:
    def test_example_code(self, hamming16_spec):
        prof = profile(hamming16_spec)
        assert prof.s == 8
        assert prof.red == (3, 5, 6, 7)
        assert prof.gamma == 4

    def test_rate_one(self):
        spec = from_frozen_set(3, [])
        prof = profile(spec)
        assert prof.s is None and prof.gamma == 0

    def test_rm_3_7_gamma(self):
        assert profile(from_rm(3, 7)).gamma == 49

    def test_worked_out_once_per_spec(self, hamming16_spec):
        # the engine asks once per prefix set; the statuses never change
        spec = hamming16_spec
        assert profile(spec) is profile(spec)
        assert spec.frozen is spec.frozen and spec.unfrozen is spec.unfrozen
        assert spec.k == len(spec.unfrozen) == 11


class TestConstants:
    @pytest.mark.parametrize("kind", ["plain", "constants", "supports", "both"])
    def test_is_plain_matches_its_statuses(self, kind):
        # the cached scan of the constraints decides ``is_plain`` as the
        # per-status definition does, and holds the constants' mask
        rng = random.Random(28)
        for _ in range(30):
            m = rng.randrange(1, 7)
            n = 1 << m
            unfrozen = set(rng.sample(range(n), rng.randrange(0, n)))
            statuses = []
            for i in range(n):
                if i in unfrozen:
                    statuses.append(None)
                    continue
                support = frozenset()
                if kind in ("supports", "both") and i and rng.random() < 0.3:
                    support = frozenset(rng.sample(range(i), rng.randrange(1, i + 1)))
                constant = rng.randrange(2) if kind in ("constants", "both") else 0
                statuses.append(FreezeConstraint(i, support, constant))
            spec = CodeSpec(m, tuple(statuses))
            plain = all(st is None or st.is_plain for st in statuses)
            assert spec.is_plain == plain
            mask, supported = spec._constants
            assert mask == sum(st.constant << i for i, st in enumerate(statuses) if st)
            assert supported == any(st.support for st in statuses if st)
            assert spec.is_plain == (mask == 0 and not supported)


class TestReedMuller:
    def test_full_order_is_rate_one(self):
        assert from_rm(4, 4).k == 16

    def test_first_order_m4(self):
        assert set(from_rm(1, 4).unfrozen) == {7, 11, 13, 14, 15}

    def test_rm_2_4_is_extended_hamming(self, hamming16_spec):
        assert from_rm(2, 4).unfrozen == hamming16_spec.unfrozen

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            from_rm(5, 4)


class TestBec:
    def test_k0_all_frozen(self):
        assert from_bhattacharyya_bec(2, 0, 0.5).k == 0

    def test_m2_parameters_and_choice(self):
        zs = bec_bhattacharyya(2, 0.5)
        assert zs == [0.9375, 0.5625, 0.4375, 0.0625]
        assert from_bhattacharyya_bec(2, 1, 0.5).unfrozen == (3,)

    def test_m4_k11_matches_example_code(self, hamming16_spec):
        spec = from_bhattacharyya_bec(4, 11, 0.5)
        assert spec.unfrozen == hamming16_spec.unfrozen

    def test_bad_erasure_rejected(self):
        with pytest.raises(ValueError):
            bec_bhattacharyya(2, 1.5)

    @pytest.mark.parametrize("erasure", [1e-3, 0.5, 0.999])
    def test_ties_prefer_the_larger_index(self, erasure):
        # float rounding ties some parameters (most of them near erasure 1)
        zs = bec_bhattacharyya(8, erasure)
        assert len(set(zs)) < len(zs)
        ranked = sorted(range(256), key=lambda i: (zs[i], -i))
        for k in range(257):
            assert set(from_bhattacharyya_bec(8, k, erasure).unfrozen) == set(ranked[:k])


class TestGeneratorMatrix:
    def test_identity_is_rate_one(self):
        spec = from_generator_matrix(np.eye(8, dtype=int))
        assert spec.k == 8 and spec.is_plain

    def test_repetition_n2(self):
        spec = from_generator_matrix([[1, 1]])
        assert spec.unfrozen == (1,)
        st = spec.statuses[0]
        assert st.support == frozenset() and st.constant == 0

    def test_self_representation_round_trip(self, hamming16_spec):
        gn = generator_matrix(4)
        rows = gn[list(HAMMING16_UNFROZEN)]
        spec = from_generator_matrix(rows)
        assert spec.is_plain
        assert spec.unfrozen == hamming16_spec.unfrozen

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            from_generator_matrix([[1, 1], [1, 1]])

    @pytest.mark.parametrize("entry", [2, 3, -1, 256, 0.5, "1"])
    def test_non_binary_entry_rejected(self, entry):
        # an entry is never read mod 2: [[1, 1, 2, 3]] is not [[1, 1, 0, 1]]
        with pytest.raises(ValueError, match="0 or 1"):
            from_generator_matrix([[1, 1, 0, entry]])

    def test_bool_entries_accepted(self):
        spec = from_generator_matrix([[True, True]])
        assert spec.statuses == from_generator_matrix([[1, 1]]).statuses

    @pytest.mark.parametrize(
        "gen",
        [
            [[np.True_, np.True_]],
            [[np.int64(1), np.uint8(1)]],
            ((1, 1),),
            np.array([[1, 1]], dtype=np.uint8),
            np.array([[1, 1]], dtype=np.int64),
            np.array([[True, True]]),
        ],
        ids=["numpy-bools", "numpy-ints", "tuples", "uint8", "int64", "bool"],
    )
    def test_array_and_scalar_forms_accepted(self, gen):
        assert from_generator_matrix(gen).statuses == from_generator_matrix([[1, 1]]).statuses

    @pytest.mark.parametrize(
        "gen, message",
        [
            (5, "two-dimensional"),
            ([], "two-dimensional"),
            ([[[1]]], "two-dimensional"),
            (functools.reduce(lambda x, _: [x], range(2000), 1), "two-dimensional"),
            ([[1, 0], [1]], "two-dimensional"),
            (["11"], "two-dimensional"),
            (np.array([1, 1]), "two-dimensional"),
            ([[]], "0 or 1"),
            ([[1, 0.5]], "0 or 1"),
            ([["1"]], "0 or 1"),
            ([[None, 1]], "0 or 1"),
            ([[1.0, 1.0]], "0 or 1"),
            ([[np.float64(1), np.float64(1)]], "0 or 1"),
            (np.ones((1, 2)), "0 or 1"),
            ([[1, 0, 1]], "block length 3 is not a power of two"),
            ([[1, 1], [1, 1]], "rank 1, expected 2"),
            ([[1, 0], [0, 1], [1, 1]], "rank 2, expected 3"),
        ],
    )
    def test_malformed_input_rejected(self, gen, message):
        with pytest.raises(ValueError, match=message):
            from_generator_matrix(gen)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrix_codeword_set_preserved(self, seed):
        rng = random.Random(seed)
        n, k = 16, rng.randrange(1, 9)
        while True:
            g = np.array(
                [[rng.randrange(2) for _ in range(n)] for _ in range(k)], dtype=np.uint8
            )
            # full rank over GF(2)?
            r, rows = 0, [int("".join(map(str, row)), 2) for row in g]
            for col in range(n):
                piv = next((i for i in range(r, k) if rows[i] >> (n - 1 - col) & 1), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                rows = [
                    x ^ rows[r] if i != r and x >> (n - 1 - col) & 1 else x
                    for i, x in enumerate(rows)
                ]
                r += 1
            if r == k:
                break
        spec = from_generator_matrix(g)
        assert spec.k == k
        direct = {
            tuple(int(b) for b in (np.array(msg) @ g) % 2)
            for msg in np.ndindex(*([2] * k))
        }
        assert codewords(spec) == direct


class TestPac:
    def test_trivial_taps_match_plain(self):
        prof = {3, 5, 6, 7}
        spec = pac_spec(3, prof, [1])
        assert spec.is_plain and set(spec.unfrozen) == prof

    def test_m2_two_tap_constraints(self):
        # rows 2 and 3 of T span u_2 and u_3 alone: the code is plain
        spec = pac_spec(2, {2, 3}, [1, 1])
        assert spec.is_plain and spec.unfrozen == (2, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_codewords_match_definition(self, seed):
        # the code is {v T G_n : v supported on the profile}, with T the
        # unit-diagonal upper-triangular Toeplitz matrix of the taps
        rng = random.Random(seed)
        m = rng.randint(0, 4)
        n = 1 << m
        taps = [1] + [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
        if seed == 0:
            prof = []
        elif seed == 1:
            prof = list(range(n))
        else:
            prof = sorted(i for i in range(n) if rng.random() < 0.5)
        t = np.zeros((n, n), dtype=np.uint8)
        for p in range(n):
            for d, tap in enumerate(taps[: n - p]):
                t[p, p + d] = tap
        tg = (t[prof].astype(int) @ generator_matrix(m)) % 2
        expected = {
            tuple(int(b) for b in (np.array(v, dtype=int) @ tg) % 2)
            for v in np.ndindex(*([2] * len(prof)))
        }
        spec = pac_spec(m, prof, taps)
        assert codewords(spec) == expected
        assert spec.unfrozen == tuple(prof)
        for st in spec.statuses:
            assert st is None or all(spec.statuses[j] is None for j in st.support)

    def test_codeword_count(self):
        spec = pac_spec(3, {3, 5, 6, 7}, [1, 0, 1])
        assert len(codewords(spec)) == 1 << 4

    def test_taps_must_start_with_one(self):
        with pytest.raises(ValueError):
            pac_spec(2, {3}, [0, 1])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1"])
    def test_non_bit_taps_rejected(self, bad):
        with pytest.raises(ValueError):
            pac_spec(2, {3}, [1, bad])
        with pytest.raises(ValueError):
            pac_spec(2, {3}, [bad, 1])

    def test_bool_taps_accepted(self):
        assert pac_spec(3, {3, 5, 6, 7}, [True, False, True]).statuses == pac_spec(
            3, {3, 5, 6, 7}, [1, 0, 1]
        ).statuses


class TestDual:
    def test_rate_one_to_rate_zero(self):
        assert dual_spec(from_frozen_set(3, [])).k == 0

    def test_example_dual_is_first_order_rm(self, hamming16_spec):
        assert dual_spec(hamming16_spec).unfrozen == from_rm(1, 4).unfrozen

    def test_rm_3_7_self_dual(self):
        spec = from_rm(3, 7)
        assert dual_spec(spec).unfrozen == spec.unfrozen

    def test_involution(self, hamming16_spec):
        assert dual_spec(dual_spec(hamming16_spec)).unfrozen == hamming16_spec.unfrozen

    def test_codewords_are_orthogonal(self):
        spec = from_unfrozen_set(3, [3, 5, 6, 7])
        dual = dual_spec(spec)
        for c in codewords(spec):
            for d in codewords(dual):
                assert sum(a & b for a, b in zip(c, d)) % 2 == 0

    def test_dynamic_spec_rejected(self):
        spec = from_frozen_set(2, [0]).with_frozen(1, 0, support=[0])
        with pytest.raises(ValueError):
            dual_spec(spec)

    def test_built_once_per_spec(self, hamming16_spec):
        dual = dual_spec(hamming16_spec)
        assert dual_spec(hamming16_spec) is dual
        # the memo is no part of the value: equality and hashing ignore it
        fresh = from_unfrozen_set(4, HAMMING16_UNFROZEN)
        assert fresh == hamming16_spec and hash(fresh) == hash(hamming16_spec)
        assert fresh.is_decreasing_code() and dual.is_decreasing_code()


class TestDualDecreasing:
    """A plain spec is decreasing exactly when its dual is (complementing
    monomials reverses the order), so ``_dual`` hands its status over; the
    dual's own check must agree."""

    @staticmethod
    def _agree(spec):
        dual = dual_spec(spec)
        own = CodeSpec._decreasing.func(dual)  # the check, not the handed value
        assert spec.is_decreasing_code() == own == dual.is_decreasing_code()
        return own

    def test_every_unfrozen_set_at_m4(self):
        assert sum(
            self._agree(from_unfrozen_set(4, [i for i in range(16) if bits >> i & 1]))
            for bits in range(1 << 16)
        ) > 1

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_random_down_closures(self, m):
        # a down-closure of a few random monomials, under deletions and
        # adjacent lowerings (which generate the order); every other one
        # with one monomial dropped, which is decreasing only when that
        # monomial was maximal
        rng = random.Random(m)
        full = (1 << m) - 1
        verdicts = set()
        for trial in range(292):
            todo = [rng.randrange(1 << m) for _ in range(rng.randrange(1, 4))]
            closure = set()
            while todo:
                mask = todo.pop()
                if mask in closure:
                    continue
                closure.add(mask)
                for k in range(m):
                    if mask >> k & 1:
                        todo.append(mask ^ 1 << k)
                        if k and not mask >> k - 1 & 1:
                            todo.append(mask ^ 3 << k - 1)
            if trial % 2:
                closure.discard(rng.choice(sorted(closure)))
            verdicts.add(self._agree(from_unfrozen_set(m, [full ^ g for g in closure])))
        assert verdicts == {True, False}


class TestPlainConstraints:
    def test_one_object_per_index(self, hamming16_spec):
        # every spec constructor shares the one plain constraint per index
        plain = from_frozen_set(4, range(16)).statuses
        specs = [
            hamming16_spec,
            dual_spec(hamming16_spec),
            # the unlisted indices of a "constraints" spec
            spec_from_json({"m": 4, "unfrozen": [15], "constraints": [{"target": 3, "support": [1]}]}),
            from_unfrozen_set(4, range(16)).with_frozen(5, 0),
            # the empty supports of a row space, before the first pivot
            pac_spec(4, set(HAMMING16_UNFROZEN), [1, 1]),
        ]
        for spec in specs:
            shared = [st for st in spec.statuses if st is not None and st.is_plain]
            assert shared and all(st is plain[st.target] for st in shared)
        assert not specs[2].is_plain and not specs[4].is_plain
        # a constraint with a constant or a support is its own value
        spec = from_unfrozen_set(2, range(4)).with_frozen(2, 1)
        assert spec.statuses[2] == FreezeConstraint(2, constant=1)
        assert spec.statuses[2] != plain[2]


class TestJson:
    def test_plain_round_trip(self, hamming16_spec):
        assert spec_from_json(spec_to_json(hamming16_spec)).unfrozen == hamming16_spec.unfrozen

    def test_dynamic_round_trip(self):
        spec = pac_spec(3, {3, 5, 6, 7}, [1, 1, 1])
        again = spec_from_json(spec_to_json(spec))
        assert again.statuses == spec.statuses

    def test_constructions(self):
        assert spec_from_json({"construction": "rm", "r": 2, "m": 4}).unfrozen == from_rm(2, 4).unfrozen
        assert spec_from_json(
            {"construction": "bec", "m": 2, "k": 1, "erasure": 0.5}
        ).unfrozen == (3,)
        assert spec_from_json(
            {"construction": "pac", "m": 2, "profile": [2, 3], "taps": [1, 1]}
        ).statuses == pac_spec(2, {2, 3}, [1, 1]).statuses
        assert spec_from_json(
            {"construction": "generator", "matrix": [[1, 1]]}
        ).unfrozen == (1,)

    def test_unfrozen_schema(self):
        spec = spec_from_json({"m": 2, "unfrozen": [3]})
        assert spec.frozen == (0, 1, 2)

    @pytest.mark.parametrize("index", [7, -1, 4])
    def test_constraint_form_rejects_out_of_range_unfrozen(self, index):
        # as in the plain "unfrozen" form, an index outside [0, n) is an
        # error, not dropped
        with pytest.raises(ValueError, match="unfrozen index out of range"):
            spec_from_json({"m": 2, "unfrozen": [3, index], "constraints": []})

    def test_conflicting_roles_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json(
                {"m": 2, "unfrozen": [0, 2, 3], "constraints": [{"target": 0}]}
            )

    @pytest.mark.parametrize(
        "obj, other",
        [
            ({"m": 2, "frozen": [0], "unfrozen": [0]}, "unfrozen"),
            ({"m": 2, "frozen": [0], "unfrozen": [1, 2, 3]}, "unfrozen"),
            ({"m": 2, "frozen": [1], "constraints": [{"target": 0}]}, "constraints"),
            ({"m": 2, "frozen": [], "unfrozen": [3], "constraints": []}, "constraints"),
        ],
    )
    def test_frozen_beside_unfrozen_or_constraints_rejected(self, obj, other):
        # neither key is silently dropped; "unfrozen" with "constraints" is
        # the constraint form
        with pytest.raises(ValueError, match=f"'frozen' or '{other}', not both"):
            spec_from_json(obj)

    @pytest.mark.parametrize(
        "obj, key",
        [
            (
                {"construction": "rm", "r": 1, "m": 3, "frozen": list(range(8)), "unfrozen": [0]},
                "frozen",
            ),
            ({"construction": "rm", "r": 1, "m": 3, "unfrozen": [7]}, "unfrozen"),
            (
                {"construction": "bec", "m": 3, "k": 4, "erasure": 0.5, "constraints": []},
                "constraints",
            ),
            ({"construction": "pac", "m": 2, "profile": [3], "taps": [1], "frozen": []}, "frozen"),
            ({"construction": "generator", "matrix": [[1, 1]], "unfrozen": [1]}, "unfrozen"),
        ],
    )
    def test_construction_beside_index_keys_rejected(self, obj, key):
        # a construction reads none of these keys, so none is dropped
        with pytest.raises(ValueError, match=f"'construction' or '{key}', not both"):
            spec_from_json(obj)

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"m": 2, "frozen": [0, 0]}, "frozen"),
            ({"m": 2, "unfrozen": [3, 1, 3]}, "unfrozen"),
            ({"m": 2, "unfrozen": [3, 3], "constraints": []}, "unfrozen"),
        ],
    )
    def test_repeated_index_rejected(self, obj, key):
        # a repeat would collapse into one index: {"m": 2, "frozen": [0, 0]}
        # loaded with k = 3
        with pytest.raises(ValueError, match=f"'{key}' lists an index twice"):
            spec_from_json(obj)

    def test_unknown_construction_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json({"construction": "mystery", "m": 2})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json({"m": 2})


class TestCodeSpecValidation:
    def test_wrong_status_count(self):
        with pytest.raises(ValueError):
            CodeSpec(2, (None,) * 3)

    def test_mistargeted_constraint(self):
        with pytest.raises(ValueError):
            CodeSpec(1, (FreezeConstraint(1), None))

    def test_with_frozen_on_frozen_index(self, hamming16_spec):
        with pytest.raises(ValueError):
            hamming16_spec.with_frozen(0, 0)

    def test_cardinality_matches_k(self):
        for unfrozen in [(3,), (1, 3), (3, 5, 6, 7)]:
            spec = from_unfrozen_set(3, unfrozen)
            assert len(codewords(spec)) == 1 << spec.k
