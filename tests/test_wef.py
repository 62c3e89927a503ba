import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwd import WeightEnumerator, brute_force_wef, from_unfrozen_set, macwilliams

from conftest import HAMMING16_WEF

small_polys = st.builds(
    WeightEnumerator,
    st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=8),
)


class TestArithmetic:
    def test_add_example(self):
        a = WeightEnumerator([1, 0, 1])
        b = WeightEnumerator([0, 2])
        assert (a + b).coeffs == [1, 2, 1]

    def test_add_zero_identity(self):
        a = WeightEnumerator([3, 0, 7])
        assert a + WeightEnumerator.zero() == a

    def test_add_sparse(self):
        a = WeightEnumerator([1, 0, 0, 0, 1])
        b = WeightEnumerator([0, 0, 2])
        assert (a + b).coeffs == [1, 0, 2, 0, 1]

    def test_mul_binomial_square(self):
        one_plus_x = WeightEnumerator([1, 1])
        assert (one_plus_x * one_plus_x).coeffs == [1, 2, 1]

    def test_mul_one_identity(self):
        a = WeightEnumerator([5, 0, 2, 1])
        assert WeightEnumerator.one() * a == a

    def test_mul_example(self):
        a = WeightEnumerator([1, 0, 1])
        b = WeightEnumerator([0, 2])
        assert (a * b).coeffs == [0, 2, 0, 2]

    def test_eval_at_one(self):
        assert WeightEnumerator([1, 0, 1]).eval_at_one() == 2
        assert WeightEnumerator.zero().eval_at_one() == 0

    def test_full_wef_sums_to_2k(self, hamming16_spec):
        wef = brute_force_wef(hamming16_spec)
        assert wef.eval_at_one() == 1 << 11

    def test_trailing_zeros_trimmed(self):
        assert WeightEnumerator([1, 2, 0, 0]).coeffs == [1, 2]
        assert WeightEnumerator([0, 0]).degree == -1

    def test_binomial(self):
        assert WeightEnumerator.binomial(4).coeffs == [1, 4, 6, 4, 1]

    def test_scale(self):
        assert WeightEnumerator([1, 2]).scale(3).coeffs == [3, 6]

    def test_to_pairs_decimal_strings(self):
        assert WeightEnumerator([1, 0, 2]).to_pairs() == [[0, "1"], [2, "2"]]

    @given(small_polys, small_polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60)
    @given(small_polys, small_polys, small_polys)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(small_polys, small_polys, small_polys)
    def test_mul_distributes_over_add(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    def test_add_preserves_totals(self, a, b):
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()


class TestMacWilliams:
    def test_self_dual_repetition(self):
        a = WeightEnumerator([1, 0, 1])
        assert macwilliams(a, 2, 1) == a

    def test_length3_repetition(self):
        a = WeightEnumerator([1, 0, 0, 1])
        assert macwilliams(a, 3, 1).coeffs == [1, 0, 3]

    def test_extended_hamming_dual_is_first_order_rm(self):
        dual = macwilliams(HAMMING16_WEF, 16, 11)
        expected = WeightEnumerator([1] + [0] * 7 + [30] + [0] * 7 + [1])
        assert dual == expected

    @pytest.mark.parametrize(
        "unfrozen",
        [(3,), (1, 2, 3), (3, 5, 6, 7), (7, 11, 13, 14, 15)],
    )
    def test_involution_on_real_codes(self, unfrozen):
        m = 2 if max(unfrozen) < 4 else 4
        spec = from_unfrozen_set(m, unfrozen)
        a = brute_force_wef(spec)
        n, k = spec.n, spec.k
        assert macwilliams(macwilliams(a, n, k), n, n - k) == a

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError):
            macwilliams(WeightEnumerator([1, 0, 1]), 1, 1)

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError):
            macwilliams(WeightEnumerator([1, 1, 1]), 2, 1)

    def test_nonlinear_input_rejected(self):
        # 2 words of weight 1 but none of weight 0: not a linear code
        with pytest.raises(ValueError):
            macwilliams(WeightEnumerator([0, 2]), 2, 1)


def macwilliams_reference(a, n, k):
    """The transform by binomial convolution on coefficient lists."""

    acc = [0] * (n + 1)
    for w, aw in a.items():
        minus = [(-1) ** i * comb(w, i) for i in range(w + 1)]
        plus = [comb(n - w, j) for j in range(n - w + 1)]
        for i, ci in enumerate(minus):
            for j, cj in enumerate(plus):
                acc[i + j] += aw * ci * cj
    assert all(c >= 0 and c % (1 << k) == 0 for c in acc)
    return WeightEnumerator([c >> k for c in acc])


def random_code_wef(rng, n, k):
    """Enumerator of a random systematic (n, k) code, over its 2^k words."""

    rows = [1 << i | rng.getrandbits(n - k) << k for i in range(k)]
    counts = [0] * (n + 1)
    word = 0
    counts[0] += 1
    for t in range(1, 1 << k):
        word ^= rows[(t & -t).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightEnumerator(counts)


class TestPackedMacWilliams:
    def test_matches_reference_on_random_codes(self):
        rng = random.Random(17)
        for n in (8, 9, 16, 31, 32, 64, 100, 128):
            for _ in range(3):
                k = rng.randrange(1, min(n, 10))
                a = random_code_wef(rng, n, k)
                assert macwilliams(a, n, k) == macwilliams_reference(a, n, k)

    def test_negative_intermediate_terms_cancel(self):
        # (1 - X)^128 has negative odd coefficients, which (1 + X)^128 cancels:
        # the dual of the repetition code is the even-weight code
        even = WeightEnumerator([comb(128, j) if j % 2 == 0 else 0 for j in range(129)])
        assert macwilliams(WeightEnumerator.monomial(128) + WeightEnumerator.one(), 128, 1) == even
        assert macwilliams(even, 128, 127) == WeightEnumerator([1] + [0] * 127 + [1])

    def test_negative_coefficient_decoded_exactly(self):
        # 64 X: 64 (1 - X)(1 + X)^63 first goes negative at X^33
        c = 64 * (comb(63, 33) - comb(63, 32))
        with pytest.raises(ValueError, match=f"X\\^33 is {c}, not"):
            macwilliams(WeightEnumerator.monomial(1, 64), 64, 6)
        with pytest.raises(ValueError, match="X\\^2 is -2, not"):
            macwilliams(WeightEnumerator([0, 2]), 2, 1)
