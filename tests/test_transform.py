import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarwd import Monomial
from polarwd.codespec import from_generator_matrix
from polarwd.monomials import evaluate
from polarwd.transform import bit_reversal_permutation, encode

from conftest import generator_matrix


def _bits(word: int, n: int) -> list[int]:
    """The n positions of ``word``, position i at bit i."""

    return [word >> i & 1 for i in range(n)]


class TestBitReversal:
    def test_m0_identity(self):
        assert bit_reversal_permutation(0) == [0]

    def test_m1_identity(self):
        assert bit_reversal_permutation(1) == [0, 1]

    def test_m2_swaps_middle(self):
        assert bit_reversal_permutation(2) == [0, 2, 1, 3]

    @given(st.integers(min_value=0, max_value=8))
    def test_involution(self, m):
        perm = bit_reversal_permutation(m)
        assert [perm[perm[i]] for i in range(1 << m)] == list(range(1 << m))

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            bit_reversal_permutation(-1)


class TestGeneratorMatrix:
    """``encode`` against the Kronecker reference G_n of ``conftest``."""

    def test_m1(self):
        assert generator_matrix(1).tolist() == [[1, 0], [1, 1]]
        assert [_bits(x, 2) for x in encode([0b01, 0b10], 1)] == [[1, 0], [1, 1]]

    @pytest.mark.parametrize("m", range(0, 9))
    def test_unit_vectors_match_reference(self, m):
        # the encoding of u_i is row i of G_n
        n = 1 << m
        rows = encode([1 << i for i in range(n)], m)
        assert [_bits(x, n) for x in rows] == generator_matrix(m).tolist()

    @pytest.mark.parametrize("m", range(0, 9))
    def test_involution(self, m):
        gn = generator_matrix(m).astype(np.int64)
        assert ((gn @ gn) % 2 == np.eye(1 << m, dtype=np.int64)).all()
        rng = random.Random(m)
        words = [rng.getrandbits(1 << m) for _ in range(32)]
        assert encode(encode(words, m), m) == words

    def test_guard(self):
        # n = 8192 is refused before any row is read, let alone transformed
        def rows():
            raise AssertionError("a row was read")
            yield 0

        with pytest.raises(ValueError, match="m=13"):
            encode(rows(), 13)
        with pytest.raises(ValueError, match="m=13"):
            from_generator_matrix([[1] + [0] * 8191])


class TestRowMonomialMap:
    def test_bottom_row_is_constant_one(self):
        assert str(Monomial.from_row_index(15, 4)) == "1"

    def test_row3_is_x2x3(self):
        assert Monomial.from_row_index(3, 4) == Monomial.parse("x2x3", 4)

    def test_row7_is_x3(self):
        assert Monomial.from_row_index(7, 4) == Monomial.parse("x3", 4)

    @pytest.mark.parametrize("m", range(0, 6))
    def test_rows_equal_evaluation_vectors(self, m):
        rows = encode([1 << i for i in range(1 << m)], m)
        for i, row in enumerate(rows):
            assert evaluate(Monomial.from_row_index(i, m)) == _bits(row, 1 << m)

    @pytest.mark.parametrize("m", range(0, 7))
    def test_round_trip(self, m):
        for i in range(1 << m):
            assert Monomial.from_row_index(i, m).row_index == i

    def test_ambient_mismatch_rejected(self):
        # a row index outside the 2^m rows has no monomial in m variables
        with pytest.raises(ValueError):
            Monomial.from_row_index(16, 4)
