"""The one substitution routine against term-by-term references.

`poly.substitute`, `BiPoly.subst` (and with it `polyaut.aut_compose`) and
the ansatz images of `ratmap.inverse` all go through `poly._substitute2`,
which builds each monomial of the result once, from a lower monomial.  The
references here expand every term on its own with `__pow__`; composition
is also checked for associativity and against evaluation at a point, and
inversion by round trips.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cremona.catalog import RHO, SIGMA, TAU
from cremona.poly import BiPoly, HomPoly, substitute
from cremona.polyaut import PolyAut, aut_compose
from cremona.ratmap import RatMap, compose, inverse
from cremona.scalars import Scalar

X, Y = BiPoly.var("x"), BiPoly.var("y")
FIELDS = (0, -3)  # Q and Q(sqrt -3)
small_int = st.integers(min_value=-3, max_value=3)
small_rational = st.builds(Fraction, small_int, st.integers(min_value=1, max_value=3))


def coefficients(d):
    return st.builds(lambda a, b: Scalar(a, b if d else 0, d), small_rational, small_int)


def hompolys(degree, d):
    mons = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return st.builds(lambda t: HomPoly(t, degree),
                     st.dictionaries(st.sampled_from(mons), coefficients(d), max_size=6))


def bipolys(degree, d):
    mons = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return st.builds(BiPoly, st.dictionaries(st.sampled_from(mons), coefficients(d), max_size=5))


def _substitute_reference(p, images):
    f0, f1, f2 = images
    out = HomPoly.zero(p.degree * f0.degree)
    for (i, j, k), c in p.terms.items():
        out = out + f0 ** i * f1 ** j * f2 ** k * c
    return out


def _subst_reference(p, fx, fy):
    out = BiPoly({})
    for (i, j), c in p.terms.items():
        out = out + fx ** i * fy ** j * c
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=3), st.data())
def test_substitute_matches_term_by_term_reference(d, n, m, data):
    p = data.draw(hompolys(n, d))
    images = [data.draw(hompolys(m, d)) for _ in range(3)]
    got = substitute(p, images)
    assert got == _substitute_reference(p, images)
    assert got.degree == n * m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=4), st.data())
def test_bipoly_subst_matches_term_by_term_reference(d, n, data):
    p = data.draw(bipolys(n, d))
    fx, fy = data.draw(bipolys(3, d)), data.draw(bipolys(3, d))
    assert p.subst(fx, fy) == _subst_reference(p, fx, fy)


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
