"""Products, powers and substitutions on the integer chart against
term-by-term references.

`_Sparse.__mul__` and `__pow__`, `poly.substitute`, `BiPoly.subst` (and with
it `polyaut.aut_compose`), `restrict_to_line` and the ansatz images of
`ratmap.inverse` all run on int pairs through
`poly._substitute_on_chart`.  The references here multiply term by term in
`Scalar` arithmetic (`_times`) and build their results with the validating
constructor, so they share no code with the chart.  Composition is also
checked for associativity and against evaluation at a point, and inversion
by round trips.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cremona.catalog import RHO, SIGMA, TAU
from cremona.errors import IncompatibleField
from cremona.poly import BiPoly, HomPoly, LinearForm, parametrize_line, restrict_to_line, substitute
from cremona.polyaut import PolyAut, aut_compose
from cremona.ratmap import RatMap, compose, inverse
from cremona.scalars import Scalar

X, Y = BiPoly.var("x"), BiPoly.var("y")
FIELDS = (0, -3, 2)  # Q, Q(sqrt -3) and Q(sqrt 2)
small_int = st.integers(min_value=-3, max_value=3)


def coefficients(d, dens=(1, 2, 3)):
    """a + b*sqrt(d) with a of denominator in dens and b of denominator 1
    or the largest of dens."""
    return st.builds(lambda a, da, b, db: Scalar(Fraction(a, da), Fraction(b, db) if d else 0, d),
                     small_int, st.sampled_from(dens), small_int, st.sampled_from((1, max(dens))))


def hompolys(degree, d, dens=(1, 2, 3)):
    mons = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return st.builds(lambda t: HomPoly(t, degree),
                     st.dictionaries(st.sampled_from(mons), coefficients(d, dens), max_size=6))


def bipolys(degree, d, dens=(1, 2, 3)):
    mons = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return st.builds(BiPoly, st.dictionaries(st.sampled_from(mons), coefficients(d, dens),
                                             max_size=5))


# -- references: term by term in Scalar arithmetic ---------------------------------

def _times(s, t):
    """The product of two term dicts over Scalar, term by term."""
    out = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Scalar(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _rebuild(cls, terms, degree):
    return cls(terms, degree) if cls is HomPoly else BiPoly(terms)


def _mul_reference(p, q):
    return _rebuild(type(p), _times(p.terms, q.terms), p.degree + q.degree)


def _pow_reference(p, k):
    terms = {(0,) * len(p.VARS): Scalar(1)}
    for _ in range(k):
        terms = _times(terms, p.terms)
    return _rebuild(type(p), terms, p.degree * k)


def _subst_terms(p, images):
    """The terms of p(images), each term of p expanded on its own."""
    nvars = len(images[0].VARS)
    out = {}
    for e, c in p.terms.items():
        term = {(0,) * nvars: c}
        for g, k in zip(images, e):
            for _ in range(k):
                term = _times(term, g.terms)
        for e2, c2 in term.items():
            out[e2] = out.get(e2, Scalar(0)) + c2
    return {e: c for e, c in out.items() if c}


def _substitute_reference(p, images):
    return HomPoly(_subst_terms(p, images), p.degree * images[0].degree)


def _subst_reference(p, fx, fy):
    return BiPoly(_subst_terms(p, (fx, fy)))


def _restrict_reference(p, L):
    lin = [HomPoly({(1, 0, 0): ps, (0, 1, 0): qt}, 1) for ps, qt in parametrize_line(L)]
    on_line = _substitute_reference(p, lin)
    return [on_line.coefficient((i, p.degree - i, 0)) for i in range(p.degree + 1)]


def _same(got, want):
    """Equal term for term, with the same degree and only nonzero Scalars."""
    assert got.terms == want.terms and got.degree == want.degree
    assert all(type(c) is Scalar and c for c in got.terms.values())


# -- differential tests ----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.booleans(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.data())
def test_products_and_powers_match_term_by_term_reference(d, hom, n, m, data):
    p = data.draw(hompolys(n, d, (1, 2, 4)) if hom else bipolys(n, d, (1, 2, 4)))
    q = data.draw(hompolys(m, d, (1, 3, 9)) if hom else bipolys(m, d, (1, 3, 9)))
    k = data.draw(st.integers(min_value=0, max_value=4))
    _same(p * q, _mul_reference(p, q))
    _same(q * p, _mul_reference(p, q))
    _same(p ** k, _pow_reference(p, k))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3), st.data())
def test_substitute_matches_term_by_term_reference(d, n, m, data):
    p = data.draw(hompolys(n, d, (1, 2, 4)))
    images = [data.draw(hompolys(m, d, (1, 3, 9))) for _ in range(3)]
    got = substitute(p, images)
    _same(got, _substitute_reference(p, images))
    assert got.degree == n * m


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=4), st.data())
def test_bipoly_subst_matches_term_by_term_reference(d, n, data):
    p = data.draw(bipolys(n, d, (1, 2, 4)))
    fx, fy = data.draw(bipolys(3, d, (1, 3, 9))), data.draw(bipolys(3, d, (1, 5)))
    _same(p.subst(fx, fy), _subst_reference(p, fx, fy))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=4), st.data())
def test_restrict_to_line_matches_term_by_term_reference(d, n, data):
    p = data.draw(hompolys(n, d, (1, 2, 4)))
    coeffs = data.draw(st.lists(coefficients(d, (1, 3, 9)), min_size=3, max_size=3)
                       .filter(any))
    L = LinearForm(coeffs)
    assert restrict_to_line(p, L) == _restrict_reference(p, L)


def test_zero_and_constant_operands():
    x, y, z = (HomPoly.var(v) for v in "xyz")
    images = [x * x * Fraction(1, 2), y * z, HomPoly.zero(2)]
    for n in range(4):
        zero = substitute(HomPoly.zero(n), images)
        assert zero.is_zero() and zero.degree == 2 * n
    p = x ** 2 * Fraction(2, 3) + z ** 2
    _same(substitute(p, [HomPoly.zero(3)] * 3), HomPoly.zero(6))
    _same(substitute(HomPoly.constant(Fraction(5, 7)), images), HomPoly.constant(Fraction(5, 7)))
    _same(p * HomPoly.constant(3), p * 3)
    _same(p * HomPoly.zero(1), HomPoly.zero(3))
    _same(HomPoly.zero(2) ** 3, HomPoly.zero(6))
    _same(p ** 0, HomPoly.constant(1))
    b = X * Fraction(1, 2) + 3
    _same(b.subst(BiPoly({}), BiPoly({})), BiPoly({(0, 0): 3}))
    _same(BiPoly({}).subst(X, Y), BiPoly({}))
    _same(b ** 0, BiPoly({(0, 0): 1}))


def test_mixed_fields_raise_incompatible_field():
    r3, r2 = Scalar(0, 1, -3), Scalar(0, 1, 2)
    x, y, z = (HomPoly.var(v) for v in "xyz")
    p, q = x * r3 + y, y * r2 + z
    for bad in (lambda: p * q, lambda: q * p, lambda: substitute(p, [q, y, z]),
                lambda: substitute(x * y * r2, [p, y, z]),
                lambda: (X * r3).subst(Y * r2, X), lambda: (X + Y).subst(X * r3, Y * r2),
                lambda: restrict_to_line(p, LinearForm([1, r2, 0])),
                lambda: (X * r3 + 1) * (Y * r2 + 1)):
        with pytest.raises(IncompatibleField):
            bad()


# -- Jung words ------------------------------------------------------------------

def affine_maps(d):
    """(a x + b y + e, c x + g y + h) with a g - b c != 0."""
    return st.builds(
        lambda a, b, c, g, e, h: PolyAut((X * a + Y * b + e, X * c + Y * g + h)),
        *[coefficients(d)] * 6,
    ).filter(lambda f: _linear_det(f) != 0)


def _linear_det(f):
    (p, q) = f.components
    return (p.terms.get((1, 0), Scalar(0)) * q.terms.get((0, 1), Scalar(0))
            - p.terms.get((0, 1), Scalar(0)) * q.terms.get((1, 0), Scalar(0)))


def elementary_maps(d):
    """(x + p(y), y) with deg p <= 2."""
    return st.builds(
        lambda cs: PolyAut((X + sum((Y ** k * c for k, c in enumerate(cs)), BiPoly({})), Y)),
        st.lists(coefficients(d), min_size=1, max_size=3),
    )


def jung_words(d):
    """affine o elementary o affine: an automorphism of degree at most 2."""
    return st.builds(lambda a, e, b: aut_compose(aut_compose(a, e), b),
                     affine_maps(d), elementary_maps(d), affine_maps(d))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_aut_compose_is_associative_and_evaluates(d, data):
    f, g, h = (data.draw(jung_words(d)) for _ in range(3))
    fg_h = aut_compose(aut_compose(f, g), h)
    assert fg_h == aut_compose(f, aut_compose(g, h))
    pt = (Scalar(Fraction(1, 2)), Scalar(-2, 1 if d else 0, d))
    assert fg_h.apply(*pt) == f.apply(*g.apply(*h.apply(*pt)))


# -- words in quadratic involutions and linear maps ---------------------------------

def unimodular_matrices():
    """Products of elementary shears I + s E_ij, s = +-1, and a sign diagonal."""
    shears = st.tuples(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
                       st.sampled_from((-1, 1)))

    def build(steps, signs):
        M = [[Scalar(signs[i] if i == j else 0) for j in range(3)] for i in range(3)]
        for (i, j), s in steps:
            M[i] = [a + b * s for a, b in zip(M[i], M[j])]
        return M
    return st.builds(build, st.lists(shears, max_size=3),
                     st.tuples(*[st.sampled_from((-1, 1))] * 3))


def cremona_words(max_quadratic):
    """L0 o q1 o L1 (o q2 o L2) for quadratic involutions q and unimodular L."""
    def build(quadratic, linear):
        f = RatMap.from_matrix(linear[0])
        for q, L in zip(quadratic, linear[1:]):
            f = compose(f, compose(q, RatMap.from_matrix(L)))
        return f
    return st.builds(build,
                     st.lists(st.sampled_from((SIGMA, TAU, RHO)), min_size=1,
                              max_size=max_quadratic),
                     st.lists(unimodular_matrices(), min_size=max_quadratic + 1,
                              max_size=max_quadratic + 1))


@settings(max_examples=12, deadline=None)
@given(cremona_words(2))
def test_inverse_round_trips_on_words(f):
    g = inverse(f, f.degree)
    ident = RatMap.identity()
    assert isinstance(g, RatMap)
    assert compose(g, f) == ident and compose(f, g) == ident


@settings(max_examples=12, deadline=None)
@given(cremona_words(1), cremona_words(1), cremona_words(1))
def test_compose_is_associative_on_words(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
