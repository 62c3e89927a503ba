"""Shared fixtures: reference codes and frozen expected values."""

import os
from pathlib import Path

import numpy as np
import pytest

import polarwd
from polarwd import WeightEnumerator, from_unfrozen_set
from polarwd.transform import bit_reversal_permutation

# (16,11) extended Hamming code as a polar/decreasing monomial code
HAMMING16_UNFROZEN = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)

# 1 + 140X^4 + 448X^6 + 870X^8 + 448X^10 + 140X^12 + X^16
HAMMING16_WEF = WeightEnumerator(
    [1, 0, 0, 0, 140, 0, 448, 0, 870, 0, 448, 0, 140, 0, 0, 0, 1]
)

# (128,64) polar code whose full weight distribution is known exactly
POLAR128_UNFROZEN = (
    27, 29, 30, 31, 39, 43, 45, 46, 47, 51, 53, 54, 55, 57, 58, 59, 60, 61,
    62, 63, 71, 75, 77, 78, 79, 83, 85, 86, 87, 89, 90, 91, 92, 93, 94, 95,
    99, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114,
    115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127,
)

# full weight distribution of that code; unlisted weights are zero
POLAR128_WD = {
    0: 1,
    8: 48,
    16: 68856,
    20: 897024,
    24: 62174352,
    28: 3788558336,
    32: 340898548764,
    36: 18388352700416,
    40: 552957778921776,
    44: 9486025399037952,
    48: 94114632655641288,
    52: 549860758309036032,
    56: 1920565170953912848,
    60: 4051922167606616064,
    64: 5193703182097324102,
    68: 4051922167606616064,
    72: 1920565170953912848,
    76: 549860758309036032,
    80: 94114632655641288,
    84: 9486025399037952,
    88: 552957778921776,
    92: 18388352700416,
    96: 340898548764,
    100: 3788558336,
    104: 62174352,
    108: 897024,
    112: 68856,
    120: 48,
    128: 1,
}


def generator_matrix(m: int) -> np.ndarray:
    """Reference G_n: the bit-reversal permutation times the m-th Kronecker
    power of [[1,0],[1,1]], as a 2^m x 2^m uint8 array."""

    k2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    kron = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        kron = np.kron(k2, kron)
    return kron[bit_reversal_permutation(m), :]


@pytest.fixture
def hamming16_spec():
    return from_unfrozen_set(4, HAMMING16_UNFROZEN)


@pytest.fixture
def polar128_spec():
    return from_unfrozen_set(7, POLAR128_UNFROZEN)


def pytest_configure(config):
    # tests that run `python -m polarwd.cli` must import the same checkout
    src = str(Path(polarwd.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))

