"""Homogeneous polynomial layer: parsing, gcd, division, line restriction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cremona.poly as poly
from cremona.errors import NOT_FULLY_SPLIT, InexactDivision
from cremona.poly import (
    BiPoly,
    HomPoly,
    LinearForm,
    divide_exact,
    factor_linear_cubic,
    field_roots,
    jacobian_det,
    parse_poly,
    poly_gcd,
    restrict_to_line,
    substitute,
)
from cremona.scalars import Scalar
from cremona.unipoly import ppow

X, Y, Z = (HomPoly.var(v) for v in "xyz")


def test_parse_round_trip():
    p = parse_poly("x^2 - 2*x*y + y^2 - z^2")
    assert p == (X - Y) ** 2 - Z ** 2
    assert parse_poly("x^2 - y^2") == (X - Y) * (X + Y)


def test_parse_with_radical():
    p = parse_poly("sqrt(2)*x*y + z^2")
    assert p.coefficient((1, 1, 0)) == Scalar(0, 1, 2)


def test_parse_rejects_inhomogeneous():
    with pytest.raises(Exception):
        parse_poly("x^2 + y")


def test_gcd_oracle():
    g = X + Y
    p = g * (X - Z) * 3
    q = g * (Y + Z) * Fraction(1, 2)
    d = poly_gcd(p, q)
    assert divide_exact(p, d) is not None and divide_exact(q, d) is not None
    assert d.degree == 1


def test_divide_exact_detects_remainder():
    assert divide_exact(X * X + Y * Y, X + Y) is None
    assert divide_exact((X + Y) * (X - Y), X + Y) == X - Y


def test_restrict_to_line():
    # x*y on the line z = 0, parametrized by two basis points
    L = LinearForm([0, 0, 1])
    coeffs = restrict_to_line(X * Y, L)
    # binary quadratic s*t (up to the parametrization convention)
    assert sum(1 for c in coeffs if c) == 1


def test_factor_linear_cubic_split():
    facs = factor_linear_cubic(X * Y * Z)
    assert facs is not NOT_FULLY_SPLIT
    assert sorted(m for _f, m in facs) == [1, 1, 1]
    facs2 = factor_linear_cubic(X * X * (X + Y))
    assert sorted(m for _f, m in facs2) == [1, 2]


def test_factor_linear_cubic_obstructed():
    # x^3 + y^3 + z^3 is irreducible over Q in linear factors
    assert factor_linear_cubic(X ** 3 + Y ** 3 - Z ** 3 * 2) is NOT_FULLY_SPLIT


def test_field_roots_quadratic_extension():
    # t^2 - 2 over Q(sqrt 2)
    roots, _complete = field_roots([Scalar(-2), Scalar(0), Scalar(1)], field_d=2)
    r = Scalar(0, 1, 2)
    assert r in roots and -r in roots


def test_jacobian_of_standard_involution():
    J = jacobian_det((Y * Z, X * Z, X * Y))
    assert divide_exact(J, X) is not None
    assert divide_exact(J, Y) is not None
    assert divide_exact(J, Z) is not None


def test_substitute_degree():
    p = substitute(X * Y - Z * Z, (Y * Z, X * Z, X * Y))
    assert p.degree == 4


small = st.integers(min_value=-5, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3))
def test_gcd_divides_products(u, v):
    if not any(u) or not any(v):
        return
    a = HomPoly({(1, 0, 0): u[0], (0, 1, 0): u[1], (0, 0, 1): u[2]}, 1)
    b = HomPoly({(1, 0, 0): v[0], (0, 1, 0): v[1], (0, 0, 1): v[2]}, 1)
    p = a * a * b
    q = a * b * b
    d = poly_gcd(p, q)
    assert divide_exact(p, d) is not None
    assert divide_exact(q, d) is not None
    assert d.degree >= 2  # a*b divides both


def test_bipoly_basics():
    x = BiPoly.var("x")
    y = BiPoly.var("y")
    p = (x + y) ** 2
    assert p.degree == 2
    assert p.eval(Scalar(1), Scalar(2)) == Scalar(9)


def test_field_roots_remainder_is_a_typed_error(monkeypatch):
    exact = poly.pdivmod
    monkeypatch.setattr(poly, "pdivmod", lambda p, q: (exact(p, q)[0], [Scalar(1)]))
    with pytest.raises(InexactDivision):
        field_roots([-6, 11, -6, 1])  # (u - 1)(u - 2)(u - 3)


def test_factor_linear_cubic_quotient_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(poly, "_find_linear_factor",
                        lambda p, field_d: LinearForm([1, 1, 1]))
    with pytest.raises(InexactDivision):
        factor_linear_cubic(X * Y + Z * Z)


def test_negative_homogeneous_power_is_rejected():
    # -1 >> 1 == -1, so square-and-multiply never ended on k = -1
    with pytest.raises(ValueError):
        (X + Y) ** -1
    assert (X + Y) ** 0 == HomPoly.constant(1)


def test_negative_bivariate_power_is_rejected():
    with pytest.raises(ValueError):
        (BiPoly.var("x") + 1) ** -1


def test_negative_univariate_power_is_rejected():
    with pytest.raises(ValueError):
        ppow([Scalar(1), Scalar(1)], -1)
    assert ppow([Scalar(1), Scalar(1)], 2) == [Scalar(1), Scalar(2), Scalar(1)]


W = Scalar(0, 1, -3)
tiny = st.integers(min_value=-3, max_value=3)


def _line(coeffs):
    return HomPoly({(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]}, 1)


def _expected_split(mono, lines):
    """{LinearForm: multiplicity} of x^a y^b z^c times the given lines."""
    want = {}
    for axis, m in enumerate(mono):
        if m:
            lf = LinearForm([int(a == axis) for a in range(3)])
            want[lf] = want.get(lf, 0) + m
    for c in lines:
        lf = LinearForm(c)
        want[lf] = want.get(lf, 0) + 1
    return want


def _product(mono, lines, lead=1):
    p = HomPoly.monomial(lead, mono)
    for c in lines:
        p = p * _line(c)
    return p


@st.composite
def monomial_and_lines(draw, coeff, max_lines):
    lines = draw(st.lists(st.lists(coeff, min_size=3, max_size=3).filter(any),
                          min_size=1, max_size=max_lines))
    a = draw(st.integers(0, 3 - len(lines)))
    b = draw(st.integers(0, 3 - len(lines) - a))
    return (a, b, draw(st.integers(0, 3 - len(lines) - a - b))), lines


@settings(max_examples=60, deadline=None)
@given(monomial_and_lines(tiny, 3), st.integers(1, 5))
def test_factor_linear_cubic_recovers_rational_lines(case, lead):
    mono, lines = case
    facs = factor_linear_cubic(_product(mono, lines, lead))
    assert facs is not NOT_FULLY_SPLIT
    assert dict(facs) == _expected_split(mono, lines)


sqrt_m3 = st.builds(lambda a, b: Scalar(a) + W * b, tiny, tiny)


@settings(max_examples=40, deadline=None)
@given(monomial_and_lines(sqrt_m3, 2))
def test_factor_linear_cubic_recovers_sqrt_minus_3_lines(case):
    mono, lines = case
    facs = factor_linear_cubic(_product(mono, lines))
    assert facs is not NOT_FULLY_SPLIT
    assert dict(facs) == _expected_split(mono, lines)


@pytest.mark.parametrize("lines", [
    [[2, 0, 3]],                      # alpha*x + gamma*z: no y, found on the pencil beta = 0
    [[0, 2, -3]],                     # beta*y + gamma*z: z = 0 restriction loses degree
    [[2, 0, 3], [0, 2, -3], [1, 1, 1]],
    [[1, 0, W], [0, 1, -W]],
])
def test_factor_linear_cubic_lines_without_x_or_y(lines):
    facs = factor_linear_cubic(_product((0, 0, 0), lines))
    assert dict(facs) == _expected_split((0, 0, 0), lines)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), sqrt_m3, max_size=6),
       st.lists(sqrt_m3, min_size=3, max_size=3).filter(any), sqrt_m3, sqrt_m3)
def test_restrict_to_line_agrees_with_evaluation(terms, coeffs, s, t):
    p = HomPoly({(i, j, 3 - i - j): c for (i, j), c in terms.items() if i + j <= 3}, 3)
    L = LinearForm(coeffs)
    b = restrict_to_line(p, L)
    assert len(b) == p.degree + 1
    point = [ps * s + qt * t for ps, qt in poly.parametrize_line(L)]
    assert L.to_poly().eval(point) == 0
    assert sum((c * s ** i * t ** (p.degree - i) for i, c in enumerate(b)), Scalar(0)) == p.eval(point)


def test_field_roots_of_an_irrational_multiple_of_a_rational_cubic():
    # sqrt(-3) * (u - 1)(u - 2)(u - 3): made monic, the cubic is rational
    roots, fully = field_roots([W * -6, W * 11, W * -6, W], -3)
    assert fully and sorted(r.a for r in roots) == [1, 2, 3]
    assert all(r.is_rational() for r in roots)


def test_factor_linear_cubic_of_an_irrational_multiple_of_rational_lines():
    lines = [[1, 1, 1], [1, 2, 1], [1, 3, 2]]
    facs = factor_linear_cubic(_product((0, 0, 0), lines, W))
    assert facs is not NOT_FULLY_SPLIT
    assert dict(facs) == _expected_split((0, 0, 0), lines)
