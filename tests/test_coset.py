import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwd import CosetCache, WeightEnumerator, from_rm, wef_direct
from polarwd.coset import calc_a, even_odd_transform
from polarwd.oracle import brute_force_coset_wef


class TestEvenOddTransform:
    def test_empty(self):
        assert even_odd_transform(()) == ((), ())

    def test_pair(self):
        assert even_odd_transform((0, 1)) == ((1,), (1,))

    def test_length_four(self):
        assert even_odd_transform((1, 0, 1, 1)) == ((1, 0), (0, 1))


class TestCalcAExamples:
    def test_base_case(self):
        assert calc_a(1, ()) == (WeightEnumerator.one(), WeightEnumerator.x())

    def test_n2_empty_prefix(self):
        w0, w1 = calc_a(2, ())
        assert w0.coeffs == [1, 0, 1]
        assert w1.coeffs == [0, 2]

    def test_n2_singleton_cosets(self):
        assert calc_a(2, (0,)) == (
            WeightEnumerator([1]),
            WeightEnumerator([0, 0, 1]),
        )
        assert calc_a(2, (1,)) == (
            WeightEnumerator([0, 1]),
            WeightEnumerator([0, 1]),
        )

    def test_n4_zero_prefix(self):
        w0, w1 = calc_a(4, (0, 0))
        assert w0.coeffs == [1, 0, 0, 0, 1]
        assert w1.coeffs == [0, 0, 2]

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            calc_a(3, ())

    def test_long_prefix_rejected(self):
        with pytest.raises(ValueError):
            calc_a(2, (0, 1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_all_short_prefixes(self, n):
        cache = CosetCache()
        for length in range(min(8, n)):
            for prefix in itertools.product((0, 1), repeat=length):
                w0, w1 = calc_a(n, prefix, cache)
                assert w0 == brute_force_coset_wef(n, prefix, 0)
                assert w1 == brute_force_coset_wef(n, prefix, 1)

    def test_zero_prefix_n16(self):
        assert brute_force_coset_wef(16, (0,) * 8, 0) == calc_a(16, (0,) * 8)[0]


class TestInvariants:
    @settings(max_examples=80)
    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_components_sum_to_coset_size(self, m, data):
        n = 1 << m
        length = data.draw(st.integers(0, n - 1))
        prefix = tuple(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
        w0, w1 = calc_a(n, prefix)
        assert w0.eval_at_one() == 1 << (n - 1 - length)
        assert w1.eval_at_one() == 1 << (n - 1 - length)

    def test_cache_does_not_change_results(self):
        rng = random.Random(7)
        cache = CosetCache()
        for _ in range(25):
            length = rng.randrange(0, 15)
            prefix = tuple(rng.randrange(2) for _ in range(length))
            assert calc_a(16, prefix, cache) == calc_a(16, prefix, None)

    def test_full_length_pairs_not_cached(self):
        spec = from_rm(2, 5)
        cache = CosetCache()
        wef_direct(spec, cache=cache)
        assert len(cache) > 0
        assert all(n < spec.n for n, _ in cache._table)

    def test_cache_is_bounded(self):
        cache = CosetCache(max_entries=2)
        for prefix in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            calc_a(8, prefix, cache)
        assert len(cache) <= 2
