"""Exact quadratic-field scalars: arithmetic axioms and square roots."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cremona.errors import IncompatibleField
from cremona.poly import BiPoly, HomPoly
from cremona.scalars import Scalar

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def s2(a, b):
    return Scalar(a, b, 2)


def test_perfect_square_discriminant_collapses():
    x = Scalar(1, 1, 4)  # sqrt(4) = 2
    assert x.is_rational() and x == Scalar(3)
    assert Scalar(0, 3, Fraction(9, 4)) == Scalar(Fraction(9, 2))


def test_one_canonical_discriminant_per_field():
    # sqrt(8) = 2 sqrt(2), sqrt(1/2) = 1/2 sqrt(2), sqrt(-12) = 2 sqrt(-3)
    assert Scalar(0, 1, 8) + Scalar(0, 1, 2) == Scalar(0, 3, 2)
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)
    assert hash(Scalar(0, 1, 8)) == hash(Scalar(0, 2, 2))
    assert Scalar(0, 1, Fraction(1, 2)) == Scalar(0, Fraction(1, 2), 2)
    assert Scalar(0, 1, -12) * Scalar(0, 1, -3) == Scalar(-6)
    assert Scalar(0, 1, -4) == Scalar(0, 2, -1)
    for d, s in ((8, 2), (Fraction(1, 2), 2), (-12, -3), (Fraction(-9, 20), -5), (-4, -1)):
        assert Scalar(1, 1, d).d == s and type(Scalar(1, 1, d).d) is int


def test_incompatible_fields_refuse_to_mix():
    with pytest.raises(IncompatibleField):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)


def test_division_and_inverse():
    x = s2(3, 1)
    assert x * x.inverse() == Scalar(1)
    assert (x / x) == Scalar(1)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_sqrt_in_field():
    # (1 + sqrt 2)^2 = 3 + 2 sqrt 2
    y = s2(3, 2)
    r = y.sqrt_in_field()
    assert r is not None and r * r == y
    assert Scalar(2).sqrt_in_field(2) * Scalar(2).sqrt_in_field(2) == Scalar(2)
    assert Scalar(3).sqrt_in_field(2) is None


def test_complex_embedding():
    z = Scalar(1, 1, -3).to_complex()
    assert abs(z - (1 + 1j * 3 ** 0.5)) < 1e-12


@given(rationals, rationals, rationals, rationals)
def test_field_axioms(a, b, c, d):
    x, y = s2(a, b), s2(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + Scalar(1)) == x * y + x
    if y:
        assert (x / y) * y == x


@given(rationals, rationals)
def test_square_roundtrip(a, b):
    x = s2(a, b)
    sq = x * x
    r = sq.sqrt_in_field(2)
    assert r is not None and r * r == sq


def test_rational_scalar_hashes_as_its_number():
    assert hash(Scalar(1)) == hash(1)
    assert {Scalar(1): 0}.get(1) == 0
    half = Fraction(1, 2)
    assert Scalar(half) == half and hash(Scalar(half)) == hash(half)
    assert {half: "h"}[Scalar(half)] == "h"
    assert len({Scalar(2), 2, Fraction(2)}) == 1


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_binary_operators_defer_to_a_non_number_operand(op):
    """A non-number operand gets NotImplemented, so its reflected method runs
    (a polynomial's) or Python raises its own TypeError; an explicit
    `Scalar.coerce` still raises."""
    assert getattr(Scalar(2), f"__{op.__name__}__")(None) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand"):
        op(Scalar(2), None)
    with pytest.raises(TypeError, match="unsupported operand"):
        op(None, Scalar(2))
    with pytest.raises(TypeError, match="cannot coerce"):
        Scalar.coerce(None)


def test_scalar_times_polynomial_is_the_polynomial_times_scalar():
    x, b = HomPoly.var("x"), BiPoly.var("x")
    assert Scalar(2) * x == x * Scalar(2) == HomPoly({(1, 0, 0): 2})
    assert Scalar(0, 1, -3) * b == b * Scalar(0, 1, -3)
    assert Scalar(2) + b == b + 2 and Scalar(2) - b == 2 - b
