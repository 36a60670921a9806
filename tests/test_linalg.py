"""Exact linear algebra: checks that raise typed errors."""

from fractions import Fraction

import pytest

from cremona.errors import DimensionMismatch, InexactDivision
from cremona.linalg import charpoly_int, mat_mul


def test_mat_mul_shape_mismatch_is_a_typed_error():
    with pytest.raises(DimensionMismatch):
        mat_mul([[1, 2]], [[1, 2]])


def test_charpoly_int_rejects_non_integral_polynomial():
    assert charpoly_int([[2, 1], [1, 1]]) == [1, -3, 1]
    with pytest.raises(InexactDivision):
        charpoly_int([[Fraction(1, 2)]])
