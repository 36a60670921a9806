"""The modular gcd over Q and Q(sqrt d) against sympy's gcd.

`pairpoly.gcd_cofactors` serves `compose`, `reduce_triple` and `poly_gcd`
on both fields, with e = 0 for Q, and its trial division serves
`divide_exact`.  The reference is sympy's `Poly.gcd`/`cofactors`/`div` over
QQ, or over QQ.algebraic_field(sqrt(d)), with polynomials converted through
sympy expressions, so no conversion code of `cremona.poly` is used by it.
The kernel's one lex division, `_divide` on int pairs, also gets a fixed
case of its own, and Brown's check of each image gcd, a univariate
division at one point, gets the unlucky points it exists to reject.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cremona import pairpoly
from cremona.catalog import E_INVOLUTION, SIGMA, TAU, f_ab
from cremona.errors import IncompatibleField, ResourceLimit
from cremona.linalg import mat_inverse
from cremona.pairpoly import PairPoly, gcd_cofactors
from cremona.poly import (
    HomPoly,
    _canonical,
    compose_reduce,
    divide_exact,
    poly_gcd,
    reduce_triple,
    substitute,
)
from cremona.ratmap import RatMap, compose
from cremona.scalars import Scalar

X, Y, Z = sympy.symbols("x y z")
FIELDS = (Fraction(-3), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(0))
SQRT_M3 = Scalar(0, 1, -3)
# More primes than any input here needs (the largest, a 500-bit constant
# term, needs about 35): a gcd that cannot be certified within them raises
# ResourceLimit instead of trying primes for ever.
PRIMES = [pairpoly._prime(k) for k in range(64)]

small_int = st.integers(min_value=-4, max_value=4)
small_rational = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
)


# -- the sympy reference ---------------------------------------------------------

def _sqrt(d):
    return sympy.sqrt(sympy.Rational(d.numerator, d.denominator))


def _domain(d):
    return sympy.QQ.algebraic_field(_sqrt(d)) if d else sympy.QQ


def _rat(f):
    return sympy.Rational(f.numerator, f.denominator)


def _hom_expr(p):
    return sum(((_rat(c.a) + _rat(c.b) * _sqrt(c.d)) * X**i * Y**j * Z**k
                for (i, j, k), c in p.terms.items()), sympy.Integer(0))


def _hom_poly(p, d):
    return sympy.Poly(_hom_expr(p), X, Y, Z, domain=_domain(d))


def _from_sympy(pol, d):
    """The HomPoly of a Poly in x, y, z over QQ or QQ(sqrt(d))."""
    s = _sqrt(d)
    terms = {}
    for exps, c in pol.terms():
        c = sympy.expand(c)
        b = c.coeff(s) if d else sympy.Integer(0)
        a = sympy.expand(c - b * s)
        terms[exps] = Scalar(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)), d)
    return HomPoly(terms)


def _pair_poly(terms, den, e):
    se = _sqrt(e)
    expr = sum(((a + b * se) * X**i * Y**j for (i, j), (a, b) in terms.items()),
               sympy.Integer(0))
    return sympy.Poly(expr / den, X, Y, domain=_domain(e))


def _sympy_gcd(pols):
    g = pols[0]
    for q in pols[1:]:
        g = g.gcd(q)
    return g


def _sympy_reduce(raws, d):
    """reduce_triple by sympy: (component Polys, gcd) or None if coprime."""
    pols = [_hom_poly(p, d) for p in raws if not p.is_zero()]
    g = _sympy_gcd(pols) if len(pols) > 1 else pols[0].monic()
    if g.is_ground:
        return None
    return [pol.exquo(g) for pol in pols], g


# -- inputs ------------------------------------------------------------------------

@st.composite
def pair_terms(draw, e, max_degree=2):
    """Pair terms of degree at most max_degree, with every B = 0 for e = 0."""
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    b_int = small_int if e else st.just(0)
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if draw(st.booleans()):
                a, b = draw(small_int), draw(b_int)
                if a or b:
                    terms[(i, j)] = (a, b)
    return terms or {(0, 0): (draw(st.integers(1, 3)), draw(b_int))}


@st.composite
def pair_families(draw):
    """e (0 for Q), and two or three products c * u_i: c a known common
    factor, which is 1 for coprime inputs, and through the origin when
    every u_i is."""
    e = draw(st.sampled_from((-3, 2, -1, 0)))
    c = draw(pair_terms(e))
    origin = draw(st.booleans())
    polys = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        u = draw(pair_terms(e))
        if origin:
            u = {(i + 1, j) if k else (i, j + 1): v
                 for k, ((i, j), v) in enumerate(sorted(u.items()))}
        polys.append((PairPoly(c, e) * PairPoly(u, e)).terms)
    return e, c, polys


@st.composite
def hom_polys(draw, d, degree):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if draw(st.booleans()):
                terms[(i, j, degree - i - j)] = Scalar(
                    draw(small_rational), draw(small_rational), d)
    return HomPoly(terms, degree)


@st.composite
def field_families(draw, count):
    """d, a common factor c over Q(sqrt d) (possibly 1, possibly with a power
    of z), and count multiples of c of one degree, at least one nonzero and,
    unless d = 0, at least one with an irrational coefficient."""
    d = draw(st.sampled_from(FIELDS))
    c = draw(hom_polys(d, draw(st.integers(min_value=0, max_value=2))))
    if c.is_zero():
        c = HomPoly.constant(1)
    if draw(st.booleans()):
        c = c * HomPoly.var("z")
    deg = draw(st.integers(min_value=0, max_value=2))
    polys = [c * draw(hom_polys(d, deg)) for _ in range(count)]
    if all(p.is_zero() for p in polys):
        polys[0] = c * HomPoly.var("x") ** deg
    if not any(v.b for p in polys for v in p.terms.values()):
        polys[0] = polys[0] + c * HomPoly.var("y") ** deg * Scalar(0, 1, d)
    return d, c, polys


# -- gcd_cofactors ---------------------------------------------------------------------

def _check_against_sympy(e, polys):
    (g, den), quotients = pairpoly._modular_gcd(polys, e, PRIMES)
    assert g[max(g)] == (den, 0)  # monic in lex order with x > y
    pols = [_pair_poly(h, 1, e) for h in polys]
    ref = _sympy_gcd(pols)
    assert _pair_poly(g, den, e) == ref
    for (q, s), pol in zip(quotients, pols):
        assert _pair_poly(q, s, e) == pol.exquo(ref)
    return g, den


@settings(max_examples=20, deadline=None)
@given(pair_families())
def test_gcd_cofactors_match_sympy(family):
    e, c, polys = family
    g, den = _check_against_sympy(e, polys)
    _pair_poly(g, den, e).exquo(_pair_poly(c, 1, e))  # the known factor divides g


def test_public_entry_point_matches_the_bounded_one():
    e = -3
    c = {(1, 0): (1, 1), (0, 0): (2, 0)}
    polys = [(PairPoly(c, e) * PairPoly(u, e)).terms
             for u in ({(0, 1): (1, 0)}, {(1, 0): (0, 1), (0, 0): (1, 0)})]
    assert gcd_cofactors(polys, e) == pairpoly._modular_gcd(polys, e, PRIMES)


def test_coprime_and_origin_inputs():
    e = -3
    x, y = {(1, 0): (1, 0)}, {(0, 1): (1, 0)}
    assert gcd_cofactors([x, y], e)[0] == ({(0, 0): (1, 0)}, 1)
    # both through the origin, coprime: no spurious factor from (0, 0)
    a = {(2, 0): (1, 0), (0, 1): (0, 1)}    # x^2 + sqrt(-3) y
    b = {(1, 0): (2, 1), (0, 2): (1, 0)}    # (2 + sqrt(-3)) x + y^2
    assert gcd_cofactors([a, b], e)[0] == ({(0, 0): (1, 0)}, 1)
    _check_against_sympy(e, [(PairPoly(a, e) * PairPoly(b, e)).terms, a])


def test_gcd_with_irrational_coefficients():
    # A candidate that missed b in a + b sqrt(e) would fail its trial
    # division at every prime.
    e = 2
    c = {(1, 0): (3, 0), (0, 1): (1, 2), (0, 0): (0, 5)}  # 3x + (1 + 2 sqrt 2) y + 5 sqrt 2
    polys = [(PairPoly(c, e) * PairPoly(u, e)).terms
             for u in ({(1, 0): (1, 1)}, {(0, 1): (2, 0), (0, 0): (0, 1)})]
    g, den = _check_against_sympy(e, polys)
    assert any(b for _a, b in g.values())


def test_candidate_that_is_wrong_modulo_the_first_primes_is_rejected():
    # A constant term = 5 modulo each of the first eight primes: a candidate
    # taken from those primes alone has constant term 5.
    big = 5
    for k in range(8):
        big *= pairpoly._prime(k)
    big += 5
    e = -3
    c = {(1, 0): (1, 0), (0, 1): (0, 1), (0, 0): (big, 0)}
    polys = [(PairPoly(c, e) * PairPoly(u, e)).terms
             for u in ({(1, 0): (1, 0), (0, 0): (1, 1)}, {(0, 1): (1, 0), (0, 0): (2, 0)})]
    g, den = _check_against_sympy(e, polys)
    assert g[(0, 0)] == (big * den, 0)


def test_prime_dividing_the_leading_norm_is_skipped():
    # h = (p x + y) u: at p the images lose x from the gcd x + y/p, and a
    # smaller leading monomial y would push out every good prime after it.
    # Over Q (e = 0) every prime is good but those dividing the norm p^2.
    for e, u0 in ((-3, {(1, 0): (1, 0), (0, 1): (0, 1), (0, 0): (1, 0)}),
                  (0, {(1, 0): (1, 0), (0, 1): (3, 0), (0, 0): (1, 0)})):
        p = next(q for q in PRIMES if not e or pow(e % q, (q - 1) // 2, q) == 1)
        c = {(1, 0): (p, 0), (0, 1): (1, 0)}
        polys = [(PairPoly(c, e) * PairPoly(u, e)).terms
                 for u in (u0, {(1, 0): (1, 0), (0, 0): (2, 0)})]
        _check_against_sympy(e, polys)
        with pytest.raises(ResourceLimit):
            pairpoly._modular_gcd(polys, e, [p])


def test_unlucky_evaluation_points_fail_the_division_check():
    # At x = 1 the y-gcd of the images is y - 1 and at x = 2 it is y + 1,
    # over Z, so every prime meets the same unlucky points.  Interpolated,
    # they give 2x + y - 3, which divides h1 and h2 but not h3: only the
    # division check of each image rejects it.
    for e in (0, -3, 2):
        def line(a, b, c):
            return PairPoly({(1, 0): (a, 0), (0, 1): (b, 0), (0, 0): (c, 0)}, e)
        polys = [(line(1, 1, -1) * line(2, 1, -3)).terms,  # (x + y - 1)(2x + y - 3)
                 line(-2, -1, 3).terms,                    # 3 - 2x - y
                 (line(1, 1, -1) * line(1, 1, -2)).terms]  # (x + y - 1)(x + y - 2)
        primes = [pairpoly._prime(k) for k in range(12)]
        g, quotients = pairpoly._modular_gcd(polys, e, primes)
        assert g == ({(0, 0): (1, 0)}, 1)
        assert quotients == [(h, 1) for h in polys]


def _unlucky_triple(e):
    def line(a, b, c):
        return PairPoly({(1, 0): (a, 0), (0, 1): (b, 0), (0, 0): (c, 0)}, e)
    return [(line(1, 1, -1) * line(2, 1, -3)).terms,  # (x + y - 1)(2x + y - 3)
            line(-2, -1, 3).terms,                    # 3 - 2x - y
            (line(1, 1, -1) * line(1, 1, -2)).terms]  # (x + y - 1)(x + y - 2)


def test_a_check_point_fixed_at_an_unlucky_x_never_certifies(monkeypatch):
    # At x = 1 the candidate 2x + y - 3 interpolated from the unlucky points
    # has the image y - 1, which divides every input's image, so a check at
    # x = 1 passes it at every prime and the exact division rejects it at
    # every prime.  The seeded check point is what lets the gcd return.
    monkeypatch.setattr(pairpoly, "_check_point", lambda p: 1)
    primes = [pairpoly._prime(k) for k in range(12)]
    for e in (0, -3, 2):
        with pytest.raises(ResourceLimit):
            pairpoly._modular_gcd(_unlucky_triple(e), e, primes)


def test_grid_divisions_on_a_divisor_with_a_lower_term_of_higher_y_degree():
    # g = x + y^2: its lex-lower term y^2 has the higher y-degree.  For
    # h = x*y the first step sends y^2 * y to y^3, outside h's grid of
    # y-degrees <= 1, so g does not divide h; (x + y^2)(x + 1) it divides.
    g = {(1, 0): 1, (0, 2): 1}
    xy = {(1, 1): 1}
    h = {(2, 0): 1, (1, 0): 1, (1, 2): 1, (0, 2): 1}

    def pairs(t):
        return {k: (v, 0) for k, v in t.items()}
    for e in (0, -3):
        assert pairpoly._divide(pairs(xy), (pairs(g), 1), e) is None
        assert pairpoly._divide(pairs(h), (pairs(g), 1), e) == \
            ({(1, 0): (1, 0), (0, 0): (1, 0)}, 1)
        # (3x + y^2) / 3 = x + y^2/3 divides (3x + y^2)(x + 1) 3(x + 1) times
        h3 = {(2, 0): 3, (1, 0): 3, (1, 2): 1, (0, 2): 1}
        q, s = pairpoly._divide(pairs(h3), ({(1, 0): (3, 0), (0, 2): (1, 0)}, 3), e)
        assert _pair_poly(q, s, e) == _pair_poly({(1, 0): (3, 0), (0, 0): (3, 0)}, 1, e)


def test_primes_are_prime():
    primes = [pairpoly._prime(k) for k in range(6)]
    assert primes == sorted(primes, reverse=True) and primes[0] < 2**62
    for p in primes:
        assert sympy.isprime(p)
    assert sympy.nextprime(primes[0]) > 2**62
    assert sympy.prevprime(primes[0]) == primes[1]


# -- poly_gcd, reduce_triple and compose over Q(sqrt d) ------------------------------

@settings(max_examples=25, deadline=None)
@given(field_families(2))
def test_poly_gcd_matches_sympy(family):
    d, c, (p, q) = family
    g = poly_gcd(p, q)
    if p.is_zero() or q.is_zero():
        return
    assert _hom_poly(g, d) == _hom_poly(p, d).gcd(_hom_poly(q, d))
    _hom_poly(g, d).exquo(_hom_poly(c, d))  # the known factor divides g


@settings(max_examples=30, deadline=None)
@given(field_families(3))
def test_reduce_triple_matches_sympy(family):
    d, _c, raws = family
    comps, g = reduce_triple(raws)
    ref = _sympy_reduce(raws, d)
    if ref is None:
        assert g is None and comps == raws
        return
    ref_comps, ref_g = ref
    assert _hom_poly(g, d) == ref_g
    it = iter(ref_comps)
    for p, comp in zip(raws, comps):
        assert comp.degree == p.degree - g.degree
        if p.is_zero():
            assert comp.is_zero()
        else:
            assert _hom_poly(comp, d) == next(it)


@st.composite
def linear_maps(draw):
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                         min_size=3, max_size=3))
    if mat_inverse(rows) is None:
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return RatMap.from_matrix([[Scalar(v) for v in row] for row in rows])


sqrt_m3_maps = st.one_of(
    st.builds(f_ab, st.just(SQRT_M3), small_rational),
    st.builds(lambda b, L: compose(f_ab(SQRT_M3, b), L), small_rational, linear_maps()),
)
partners = st.one_of(st.sampled_from([SIGMA, TAU, E_INVOLUTION]), linear_maps(), sqrt_m3_maps)


@settings(max_examples=10, deadline=None)
@given(sqrt_m3_maps, partners, st.booleans())
def test_compose_over_sqrt_m3_matches_sympy_reduction(f, g, swap):
    if swap:
        f, g = g, f
    d = Fraction(-3)
    h = compose(f, g)
    raw = [substitute(c, g.components) for c in f.components]
    ref = _sympy_reduce(raw, d)
    if ref is None:
        assert h.removed_factor is None
        assert list(h.components) == _canonical(raw)
        return
    ref_comps, ref_g = ref
    assert _hom_poly(h.removed_factor, d) == ref_g
    assert [c for c in h.components if c] == _canonical([_from_sympy(c, d) for c in ref_comps])


def test_lone_component_composes_to_one_times_its_monic_form():
    # (h : 0 : 0) composes to a constant component, whose canonical
    # representative is 1, and the removed factor monic(h o g)
    x, y, z = (HomPoly.var(v) for v in "xyz")
    zero = HomPoly.zero(2)
    for r in (Scalar(1), SQRT_M3):
        h = HomPoly({(2, 0, 0): r, (1, 1, 0): Fraction(3, 2), (0, 1, 1): Fraction(-5, 7)})
        for g in ((x, y, z), (x * 3 + y * r, y, z * 2)):
            comps, factor = compose_reduce((h, zero, zero), g)
            assert _canonical(comps) == [HomPoly.constant(1), HomPoly.zero(0), HomPoly.zero(0)]
            assert [c.degree for c in comps] == [0, 0, 0]
            assert factor == substitute(h, g).monic()
        assert compose_reduce((h, zero, zero), (x, y, z))[1] == h.monic()


def test_compose_over_two_fields_is_an_error():
    # a chart reads every B of A + B*sqrt(d) as a multiple of one sqrt(d)
    x, y, z = (HomPoly.var(v) for v in "xyz")
    f = RatMap((x * x * Scalar(0, 1, 2) + y * z, x * y, x * z))
    g = RatMap((x * SQRT_M3 + y, y, z))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(IncompatibleField):
            compose(a, b)


# -- divide_exact against sympy's div ------------------------------------------------

DIVISION_FIELDS = (Fraction(0), Fraction(-3), Fraction(2), Fraction(-1))


def _check_division(p, q, d):
    """divide_exact(p, q) is sympy's quotient when its remainder is 0, else None."""
    quot = divide_exact(p, q)
    ref, rem = _hom_poly(p, d).div(_hom_poly(q, d))
    if rem.is_zero:
        assert quot is not None and _hom_poly(quot, d) == ref
        assert quot.degree == max(p.degree - q.degree, 0)
    else:
        assert quot is None
    return quot


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(DIVISION_FIELDS), st.data())
def test_divide_exact_matches_sympy_div(d, data):
    p = data.draw(hom_polys(d, data.draw(st.integers(min_value=0, max_value=2))))
    q = data.draw(hom_polys(d, data.draw(st.integers(min_value=0, max_value=2))))
    if q.is_zero():
        q = HomPoly.var("x") + HomPoly.var("y") * Scalar(1, 1, d)
    r = data.draw(hom_polys(d, p.degree + q.degree))
    z = HomPoly.var("z")
    # exact products give p back
    assert _check_division(p * q, q, d) == p
    # p q + r divides only when q divides r
    _check_division(p * q + r, q, d)
    # the charts of q and q z agree, so only z's exponent tells them apart
    quot = _check_division(p * q, q * z, d)
    if p and not p.min_exponent(2):
        assert quot is None
    # constant divisors
    c = data.draw(hom_polys(d, 0))
    if c:
        assert _check_division(p, c, d) == p * c.terms[(0, 0, 0)].inverse()
