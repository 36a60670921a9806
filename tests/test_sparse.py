"""The sparse polynomial core shared by HomPoly and BiPoly.

Arithmetic builds its results without the validating constructor, so the
tests here pass every result back through it; `RatMap.__eq__` is checked
against the definition it replaced, the three 2x2 minors of the two
triples, kept here as the reference.  `_ratio` is the test-side
proportionality reference, also used by `test_ratmap`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cremona.poly import BiPoly, HomPoly
from cremona.ratmap import RatMap, normalize
from cremona.scalars import Scalar

FIELDS = (0, -3)  # Q and Q(sqrt -3)
small_int = st.integers(min_value=-3, max_value=3)
small_rational = st.builds(Fraction, small_int, st.integers(min_value=1, max_value=3))


def coefficients(d):
    return st.builds(lambda a, b: Scalar(a, b if d else 0, d), small_rational, small_int)


def nonzero(d):
    return coefficients(d).filter(bool)


def hompolys(degree, d):
    mons = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return st.builds(lambda t: HomPoly(t, degree),
                     st.dictionaries(st.sampled_from(mons), coefficients(d), max_size=6))


def bipolys(d):
    mons = [(i, j) for i in range(4) for j in range(4 - i)]
    return st.builds(BiPoly, st.dictionaries(st.sampled_from(mons), coefficients(d), max_size=6))


def _assert_clean(r):
    """r holds no zero coefficient and is what the validating constructor
    makes of its own terms, nominal degree included."""
    assert all(type(c) is Scalar and c for c in r.terms.values())
    again = type(r)(dict(r.terms), r.degree) if type(r) is HomPoly else BiPoly(dict(r.terms))
    assert again.terms == r.terms and again.degree == r.degree


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.booleans(), st.integers(min_value=0, max_value=3), st.data())
def test_arithmetic_results_are_clean_and_hash_by_value(d, hom, n, data):
    polys = hompolys(n, d) if hom else bipolys(d)
    p, q = data.draw(polys), data.draw(polys)
    r = data.draw(hompolys(1, d) if hom else bipolys(d))
    c = data.draw(coefficients(d))
    k = data.draw(st.integers(min_value=0, max_value=3))
    point = [data.draw(coefficients(d)) for _ in p.VARS]
    results = [p + q, p - q, -p, p * r, p * c, 2 * p, p.mul_ground(c), p * 2,
               p * Fraction(1, 2), p ** k, p - p]
    for res in results:
        _assert_clean(res)
    at = (lambda f: f.eval(point)) if hom else (lambda f: f.eval(*point))
    assert at(p * r) == at(p) * at(r) and at(p - q) == at(p) - at(q)
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert p * r == r * p and hash(p * r) == hash(r * p)
    assert p - p == type(p)({}) and hash(p - p) == hash(type(p)({}))
    if hom:
        assert (p - p).degree == p.degree and (p * c).degree == p.degree


def test_mixed_operands():
    h, b = HomPoly.var("x"), BiPoly.var("x")
    for bad in (lambda: h + b, lambda: b + h, lambda: h + 1, lambda: 1 - h, lambda: h * b):
        with pytest.raises(TypeError):
            bad()
    assert h != b and (h - h) != BiPoly({})
    assert 1 - b == BiPoly({(0, 0): 1, (1, 0): -1})
    assert 2 + b == b + 2 and (b - b).degree == 0


def _ratio(ps, qs):
    """The reference: p_e / q_e over the union of the supports, when that is
    one value and no term is on one side only; else None."""
    ratios = {p.terms[e] / q.terms[e] if e in p.terms and e in q.terms else None
              for p, q in zip(ps, qs) for e in {**p.terms, **q.terms}}
    return ratios.pop() if len(ratios) == 1 else None


# -- RatMap.__eq__ against the 2x2 minors -------------------------------------------

def _minors_equal(f, g):
    """The parent definition: equal degrees and f_i g_j == f_j g_i for i < j."""
    if f.degree != g.degree:
        return False
    a, b = f.components, g.components
    return all(a[i] * b[j] == a[j] * b[i] for i in range(3) for j in range(i + 1, 3))


@st.composite
def coprime_maps(draw, d):
    """normalize() of a random triple of degree 1 or 2, some components
    possibly zero."""
    n = draw(st.integers(min_value=1, max_value=2))
    comps = draw(st.lists(hompolys(n, d), min_size=3, max_size=3).filter(any))
    return normalize(comps)


def _variants(f, data, d):
    """Maps of f's degree to compare with f: a scaled copy, a copy with a
    component set to zero, a copy with one term added, an unrelated map."""
    n = f.degree
    comps = list(f.components)
    c = data.draw(nonzero(d))
    out = [RatMap([p * c for p in comps])]
    i = data.draw(st.integers(min_value=0, max_value=2))
    zeroed = comps[:i] + [HomPoly.zero(n)] + comps[i + 1:]
    if any(zeroed):
        out.append(RatMap(zeroed))
    mons = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    bump = HomPoly.monomial(data.draw(nonzero(d)), data.draw(st.sampled_from(mons)))
    bumped = comps[:i] + [comps[i] + bump] + comps[i + 1:]
    if any(bumped):
        out.append(RatMap(bumped))
    out.append(data.draw(coprime_maps(d)))
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_ratmap_eq_agrees_with_the_minors(d, data):
    f = data.draw(coprime_maps(d))
    for g in _variants(f, data, d):
        assert (f == g) == _minors_equal(f, g)
        assert (g == f) == _minors_equal(g, f)
    assert f == RatMap([p * Scalar(3) for p in f.components])
