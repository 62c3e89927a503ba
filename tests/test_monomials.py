import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwd import (
    Monomial,
    max_mixing_factor,
    max_mixing_factor_rate_half,
    single_shift_le,
)
from polarwd.monomials import (
    Order,
    _incomparable_above_counts,
    _suffix_counts,
    compare,
    is_decreasing,
    precedes,
)


def monomials(m: int):
    return st.integers(min_value=0, max_value=(1 << m) - 1).map(
        lambda mask: Monomial(mask, m)
    )


def below_by_divisors(f, g):
    """Reference order: f <= g iff some divisor of g with f's degree dominates
    f variable by variable, both sorted."""

    return any(
        all(a <= b for a, b in zip(f.vars, sub))
        for sub in itertools.combinations(g.vars, f.degree)
    )


def predecessors(g):
    """Reference single shifts below g = h*x_k, for each variable k
    ascending: f = h, then f = h*x_j for each absent j < k ascending."""

    for k in g.vars:
        rest = [v for v in g.vars if v != k]
        yield Monomial.from_vars(rest, g.m)
        for j in range(k):
            if j not in g.vars:
                yield Monomial.from_vars(rest + [j], g.m)


def single_shift_chain(f, g):
    """A shortest chain f = f_0, f_1, ..., f_t = g whose steps are single
    shifts (``single_shift_le``), or None: breadth first from f."""

    above = [Monomial(mask, f.m) for mask in range(1 << f.m)]
    came_from = {f: None}
    frontier = [f]
    while frontier and g not in came_from:
        reached = []
        for a in frontier:
            for b in above:
                if b not in came_from and single_shift_le(a, b):
                    came_from[b] = a
                    reached.append(b)
        frontier = reached
    if g not in came_from:
        return None
    chain = [g]
    while chain[-1] != f:
        chain.append(came_from[chain[-1]])
    return chain[::-1]


class TestParseAndFormat:
    def test_constant(self):
        assert Monomial.parse("1", 4).mask == 0
        assert str(Monomial.one(4)) == "1"

    @pytest.mark.parametrize("text", ["x0*x3", "x0x3", "x0 x3", "x3*x0"])
    def test_separators(self, text):
        assert Monomial.parse(text, 4) == Monomial.from_vars([0, 3], 4)

    def test_round_trip(self):
        for mask in range(16):
            f = Monomial(mask, 4)
            assert Monomial.parse(str(f), 4) == f

    def test_error_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            Monomial.parse("x0y1", 4)

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError, match="x7"):
            Monomial.parse("x7", 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Monomial.parse("", 4)


class TestCompare:
    def test_x3_below_x2x3(self):
        f = Monomial.parse("x3", 4)
        g = Monomial.parse("x2x3", 4)
        assert compare(f, g) == Order.F_PRECEDES_G

    def test_equal(self):
        f = Monomial.parse("x0x2", 4)
        assert compare(f, f) == Order.EQUAL

    def test_incomparable(self):
        f = Monomial.parse("x0x3", 4)
        g = Monomial.parse("x1x2", 4)
        assert compare(f, g) == Order.INCOMPARABLE

    def test_different_rings_rejected(self):
        with pytest.raises(ValueError):
            compare(Monomial.one(3), Monomial.one(4))

    def test_matches_divisor_definition_exhaustively(self):
        m = 4
        for fm, gm in itertools.product(range(1 << m), repeat=2):
            f, g = Monomial(fm, m), Monomial(gm, m)
            assert precedes(f, g) == below_by_divisors(f, g), (f, g)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_all_four_outcomes_match_divisor_definition(self, m):
        outcome = {
            (True, True): Order.EQUAL,
            (True, False): Order.F_PRECEDES_G,
            (False, True): Order.G_PRECEDES_F,
            (False, False): Order.INCOMPARABLE,
        }
        for fm, gm in itertools.product(range(1 << m), repeat=2):
            f, g = Monomial(fm, m), Monomial(gm, m)
            expected = outcome[below_by_divisors(f, g), below_by_divisors(g, f)]
            assert compare(f, g) == expected, (f, g)


class TestSingleShift:
    def test_swap_down(self):
        assert single_shift_le(Monomial.parse("x1x3", 4), Monomial.parse("x2x3", 4))

    def test_self_is_false(self):
        f = Monomial.parse("x1x3", 4)
        assert not single_shift_le(f, f)

    def test_unrelated(self):
        assert not single_shift_le(Monomial.parse("x3", 4), Monomial.parse("x1x2", 4))

    def test_deletion(self):
        assert single_shift_le(Monomial.parse("x3", 4), Monomial.parse("x2x3", 4))

    def test_implies_order(self):
        m = 4
        for fm, gm in itertools.product(range(1 << m), repeat=2):
            f, g = Monomial(fm, m), Monomial(gm, m)
            if single_shift_le(f, g):
                assert precedes(f, g)


class TestChainDecompose:
    """f precedes g exactly when a chain of single shifts leads from f up
    to g: the order is the transitive closure of ``single_shift_le``."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_chain_exists_iff_ordered_and_steps_are_single_shifts(self, m):
        for fm, gm in itertools.product(range(1 << m), repeat=2):
            f, g = Monomial(fm, m), Monomial(gm, m)
            chain = single_shift_chain(f, g)
            if not precedes(f, g):
                assert chain is None
                continue
            assert chain is not None
            assert chain[0] == f and chain[-1] == g
            for a, b in zip(chain, chain[1:]):
                assert single_shift_le(a, b), (a, b)


class TestIsDecreasing:
    def test_full_set(self):
        ok, witness = is_decreasing(Monomial(mask, 4) for mask in range(16))
        assert ok and witness is None

    def test_missing_predecessor(self):
        ok, witness = is_decreasing([Monomial.parse("x2x3", 4)])
        assert not ok
        missing, member = witness
        assert str(member) == "x2x3"
        assert precedes(missing, member)

    def test_example_code_is_decreasing(self, hamming16_spec):
        ok, _ = is_decreasing(hamming16_spec.unfrozen_monomials())
        assert ok

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_agrees_with_full_downward_closure(self, m):
        # every subset of the 2^m monomials, checked both ways
        if m == 4:
            import random

            rng = random.Random(11)
            subsets = [rng.randrange(1 << 16) for _ in range(300)]
        else:
            subsets = range(1 << (1 << m))
        for bits in subsets:
            members = [Monomial(mask, m) for mask in range(1 << m) if bits >> mask & 1]
            present = {f.mask for f in members}
            closed = all(
                h.mask in present
                for g in members
                for h in (Monomial(x, m) for x in range(1 << m))
                if precedes(h, g)
            )
            assert is_decreasing(members)[0] == closed

    @settings(max_examples=150)
    @given(st.integers(1, 5), st.data())
    def test_witness_is_first_missing_predecessor(self, m, data):
        # against brute force over ``precedes``, and the witness is the first
        # member, then its first immediate predecessor, that is missing
        masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), unique=True))
        members = [Monomial(mask, m) for mask in masks]
        everything = [Monomial(x, m) for x in range(1 << m)]
        closed = all(h in members for g in members for h in everything if precedes(h, g))
        first = next(
            ((f, g) for g in members for f in predecessors(g) if f not in members), None
        )
        assert is_decreasing(iter(members)) == (closed, first)
        if first is not None:
            missing, member = first
            assert single_shift_le(missing, member) and precedes(missing, member)


class TestOrderProperties:
    @settings(max_examples=120)
    @given(st.data())
    def test_antisymmetry_random(self, data):
        m = data.draw(st.integers(2, 8))
        f = data.draw(monomials(m))
        g = data.draw(monomials(m))
        if precedes(f, g) and precedes(g, f):
            assert f == g

    @settings(max_examples=120)
    @given(st.data())
    def test_transitivity_random(self, data):
        m = data.draw(st.integers(2, 8))
        f, g, h = (data.draw(monomials(m)) for _ in range(3))
        if precedes(f, g) and precedes(g, h):
            assert precedes(f, h)

    def test_single_shifts_are_exactly_the_reference_predecessors(self):
        m = 4
        for gm in range(1 << m):
            g = Monomial(gm, m)
            expected = list(predecessors(g))
            for fm in range(1 << m):
                f = Monomial(fm, m)
                assert single_shift_le(f, g) == (f in expected), (f, g)


def _vectorised_incomparable_above_counts(m: int) -> list[int]:
    """Reference: each row's suffix counts as one array row, and for each t
    one vectorised domination test against every row above t."""

    n = 1 << m
    counts_matrix = np.array([_suffix_counts((n - 1) ^ i, m) for i in range(n)], dtype=np.int16)
    out = [0] * n
    for t in range(1, n):
        above = counts_matrix[:t]
        le = (above <= counts_matrix[t]).all(axis=1)
        ge = (above >= counts_matrix[t]).all(axis=1)
        out[t] = int((~(le | ge)).sum())
    return out


class TestMixingFactorExtremals:
    @pytest.mark.parametrize("m", range(0, 11))
    def test_counts_match_vectorised_reference(self, m):
        assert _incomparable_above_counts(m) == _vectorised_incomparable_above_counts(m)

    @pytest.mark.parametrize("m,expected", [(1, 0), (2, 0), (5, 11)])
    def test_spot_values(self, m, expected):
        assert max_mixing_factor(m)[0] == expected

    @pytest.mark.parametrize("m,expected", [(4, 2), (7, 49)])
    def test_rate_half_spot_values(self, m, expected):
        assert max_mixing_factor_rate_half(m) == expected

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            max_mixing_factor(0)

    def test_witness_rows_attain_the_maximum(self):
        # rebuild the incomparable-above count for one witness by hand
        m = 4
        best, taus = max_mixing_factor(m)
        for t in taus:
            tau = Monomial.from_row_index(t, m)
            count = sum(
                1
                for i in range(t)
                if compare(Monomial.from_row_index(i, m), tau) == Order.INCOMPARABLE
            )
            assert count == best
