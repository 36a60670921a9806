"""Rational maps of the plane: composition, inversion, classification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cremona.catalog import CUBIC_TABLE, PSI, PSI_INVERSE, f_ab
from cremona.errors import NOT_CONTRACTED, NOT_FOUND, ResourceLimit
from cremona.linalg import mat_inverse
from cremona.poly import HomPoly, LinearForm, parse_poly, substitute
from cremona.ratmap import (
    JonqElement,
    ProjPoint,
    RatMap,
    compose,
    indeterminacy_points_quadratic,
    inverse,
    is_contracted_line,
    iterate,
    jonq_compose,
    jonq_inverse,
    jonq_to_ratmap,
    noether_solve,
    parse_ratmap,
    quadratic_classify,
)
from cremona.scalars import Scalar
from cremona.unipoly import pmul
from test_sparse import _ratio

SIGMA = parse_ratmap("y*z : x*z : x*y")
RHO = parse_ratmap("x*y : z^2 : y*z")
TAU = parse_ratmap("x^2 : x*y : y^2 - x*z")


def test_normalize_strips_common_factor():
    f = RatMap.identity()
    x = HomPoly.var("x")
    from cremona.ratmap import normalize
    g = normalize(tuple(c * x for c in f.components))
    assert g.degree == 1 and g.is_identity()
    assert g.removed_factor is not None


QUADRATIC_MONOMIALS = [(i, j, 2 - i - j) for i in range(3) for j in range(3 - i)]
small_rational = st.fractions(-6, 6, max_denominator=4)


@st.composite
def maps_with_a_scalar(draw):
    """Three quadratic forms, not all zero, over Q, Q(sqrt 2) or Q(sqrt -3),
    and a nonzero scalar of that field."""
    d = draw(st.sampled_from([0, 2, -3]))
    coef = st.builds(lambda a, b: Scalar(a, b if d else 0, d), small_rational, small_rational)
    comps = [HomPoly(draw(st.dictionaries(st.sampled_from(QUADRATIC_MONOMIALS), coef,
                                          max_size=4)), 2) for _ in range(3)]
    if not any(comps):
        comps[draw(st.integers(0, 2))] = HomPoly({(1, 1, 0): Scalar(1, 1 if d else 0, d)})
    return comps, draw(coef.filter(bool))


@settings(max_examples=60, deadline=None)
@given(maps_with_a_scalar())
def test_every_map_is_its_one_canonical_representative(comps_c):
    comps, c = comps_c
    f = RatMap(comps)
    g = RatMap([p * c for p in comps])
    assert f.components == g.components
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    assert _ratio(f.components, comps) is not None
    # Z[sqrt d] coefficients of content 1, lex-leading one rational and positive
    lead = next(p for p in f.components if p)
    assert lead.leading()[1].is_rational() and lead.leading()[1].a > 0
    parts = [v for p in f.components for s in p.terms.values() for v in (s.a, s.b)]
    assert all(v.denominator == 1 for v in parts)
    assert math.gcd(*(int(v) for v in parts)) == 1


def test_canonical_components_print_with_integer_coefficients():
    assert str(parse_ratmap("x/2 : y : z")) == "x : 2*y : 2*z"
    assert str(parse_ratmap("-x : y : z")) == "x : -y : -z"
    f = parse_ratmap("sqrt(-3)*x : y : z")
    assert str(f) == "3*x : (-sqrt(-3))*y : (-sqrt(-3))*z"
    assert f == parse_ratmap("x : (-1/3*sqrt(-3))*y : (-1/3*sqrt(-3))*z")


def test_projective_point_canonical():
    assert ProjPoint([2, 4, 6]) == ProjPoint([1, 2, 3])
    assert ProjPoint([0, 3, 6]) == ProjPoint([0, 1, 2])


def test_sigma_involution_and_iterate():
    assert compose(SIGMA, SIGMA).is_identity()
    assert iterate(SIGMA, 2).is_identity()
    assert iterate(SIGMA, 3) == SIGMA
    assert iterate(TAU, 1) == TAU
    assert iterate(TAU, 0) == RatMap.identity()
    with pytest.raises(ValueError, match="at least 0"):
        iterate(TAU, -1)


def test_inverse_of_quadratics():
    for f in (SIGMA, RHO, TAU):
        g = inverse(f, 2)
        assert g is not NOT_FOUND
        assert compose(f, g).is_identity()
        assert compose(g, f).is_identity()


def test_inverse_not_found_for_non_birational():
    f = parse_ratmap("x^2 : y^2 : z^2")
    assert inverse(f, 1) is NOT_FOUND
    assert inverse(f, 2) is NOT_FOUND


def test_inverse_degree_below_one_is_a_value_error():
    for d in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            inverse(SIGMA, d)


W = Scalar(0, 1, -3)


def _conjugate(f, M):
    """L^-1 o f o L for the linear map L of the matrix M."""
    M = [[Scalar.coerce(v) for v in row] for row in M]
    return compose(RatMap.from_matrix(mat_inverse(M)), compose(f, RatMap.from_matrix(M)))


# Unimodular (det 1) maps over Q(sqrt -3): products of shears by +-sqrt(-3) and 1.
SQRT_M3_UNIMODULAR = (
    [[1, W, 0], [0, 1, 0], [0, -W, 1]],
    [[1, 0, 0], [W, 1, 0], [1, W, 1]],
    [[1, 1, -W], [0, 1, W], [0, 0, 1]],
)


def test_inverse_over_q_sqrt_minus_3_round_trips():
    f = f_ab(W, 2)
    g = inverse(f, 2)
    assert g is not NOT_FOUND and g.degree == 2
    assert compose(f, g).is_identity() and compose(g, f).is_identity()
    for M in SQRT_M3_UNIMODULAR:
        f = _conjugate(PSI, M)
        g = inverse(f, 3)
        assert g is not NOT_FOUND and g.degree == 3
        assert compose(f, g).is_identity() and compose(g, f).is_identity()
        assert g == _conjugate(PSI_INVERSE, M)


def test_inverse_not_found_over_q_sqrt_minus_3():
    f = parse_ratmap("x^2 : sqrt(-3)*y^2 : z^2")
    assert f.components[1].field_disc() == -3
    assert inverse(f, 2) is NOT_FOUND
    assert inverse(f, 3) is NOT_FOUND


# str(inverse(f, d)) as recorded when the ansatz was solved by rref on
# Fractions and Scalars: the integer solve must give the same maps, over Q
# and over Q(sqrt -3), also where the nullspace has dimension two or more
# (sigma at degree 3, f_ab at degree 3).  Since maps keep one canonical
# representative, two of them now print scaled; CANONICAL_INVERSES maps
# each of those old strings to the new one.
PINNED_INVERSES = [
    (PSI, 3, "-x*y^2 + y*z^2 : -x*y*z + z^3 : x*z^2"),
    (CUBIC_TABLE[0], 3, "x*z^2 - y^3 : y*z^2 : z^3"),
    (CUBIC_TABLE[1], 3, "x*y*z : x*y^2 : z^3"),
    (CUBIC_TABLE[2], 3, "x^2*z + x*y*z : x*y*z + y^2*z : x*y^2"),
    (SIGMA, 2, "y*z : x*z : x*y"),
    (TAU, 2, "x^2 : x*y : -x*z + y^2"),
    (RHO, 2, "x*y : z^2 : y*z"),
    (SIGMA, 3, "y*z : x*z : x*y"),
    (_conjugate(PSI, [[1, 2, -1], [0, 1, 3], [0, 0, 1]]), 3,
     "x*y^2 + 4*x*y*z - 4*x*z^2 + 2*y^3 + 7*y^2*z - 13*y*z^2 + 3*z^3 : "
     "x*y*z + 6*x*z^2 + 2*y^2*z + 11*y*z^2 - 7*z^3 : -x*z^2 - 2*y*z^2 + z^3"),
    (f_ab(W, 2), 2, "x*z : (sqrt(-3))*x^2 + x*y - 2*x*z : y*z"),
    (f_ab(W, 2), 3, "x*z : (sqrt(-3))*x^2 + x*y - 2*x*z : y*z"),
    (_conjugate(PSI, SQRT_M3_UNIMODULAR[0]), 3,
     "(-2/3*sqrt(-3))*x*y^2 + x*y*z + (2 - 2*sqrt(-3))*y^3 + (7 + sqrt(-3))*y^2*z"
     " + (8/3*sqrt(-3))*y*z^2 - z^3 : x*y^2 + (1/3*sqrt(-3))*x*y*z"
     " + (3 + sqrt(-3))*y^3 + (-1 + 3*sqrt(-3))*y^2*z - 3*y*z^2 + (-1/3*sqrt(-3))*z^3"
     " : (2*sqrt(-3))*x*y^2 - 3*x*y*z + (-1/3*sqrt(-3))*x*z^2 + (-6 + 3*sqrt(-3))*y^3"
     " + (-9 - 3*sqrt(-3))*y^2*z + (1 - 3*sqrt(-3))*y*z^2 + z^3"),
]


CANONICAL_INVERSES = {
    PINNED_INVERSES[0][2]: "x*y^2 - y*z^2 : x*y*z - z^3 : -x*z^2",
    PINNED_INVERSES[-1][2]:
    "2*x*y^2 + (sqrt(-3))*x*y*z + (6 + 2*sqrt(-3))*y^3 + (-3 + 7*sqrt(-3))*y^2*z"
    " - 8*y*z^2 + (-sqrt(-3))*z^3 : (sqrt(-3))*x*y^2 - x*y*z + (-3 + 3*sqrt(-3))*y^3"
    " + (-9 - sqrt(-3))*y^2*z + (-3*sqrt(-3))*y*z^2 + z^3 : -6*x*y^2"
    " + (-3*sqrt(-3))*x*y*z + x*z^2 + (-9 - 6*sqrt(-3))*y^3 + (9 - 9*sqrt(-3))*y^2*z"
    " + (9 + sqrt(-3))*y*z^2 + (sqrt(-3))*z^3",
}


@pytest.mark.parametrize("f, d, old", PINNED_INVERSES)
def test_inverse_outputs_are_pinned(f, d, old):
    want = CANONICAL_INVERSES.get(old, old)
    assert str(inverse(f, d)) == want
    split = [[parse_poly(p) for p in text.split(":")] for text in (old, want)]
    assert _ratio(*split) is not None


def test_strata():
    assert quadratic_classify(SIGMA).stratum == "Sigma3"
    assert quadratic_classify(RHO).stratum == "Sigma2"
    assert quadratic_classify(TAU).stratum == "Sigma1"


def test_sigma_indeterminacy_points():
    pts, obstructed = indeterminacy_points_quadratic(SIGMA)
    assert not obstructed
    expect = {ProjPoint([1, 0, 0]), ProjPoint([0, 1, 0]), ProjPoint([0, 0, 1])}
    assert set(pts) == expect


def test_contracted_lines_of_sigma():
    for coeffs, target in (
        ([1, 0, 0], ProjPoint([1, 0, 0])),
        ([0, 1, 0], ProjPoint([0, 1, 0])),
        ([0, 0, 1], ProjPoint([0, 0, 1])),
    ):
        assert is_contracted_line(SIGMA, LinearForm(coeffs)) == target
    generic = LinearForm([1, 1, 1])
    assert is_contracted_line(SIGMA, generic) is NOT_CONTRACTED


def test_noether_degree_two_and_jonquieres():
    profiles = noether_solve(2)
    assert [p.multiplicities for p in profiles] == [(1, 1, 1)]
    for nu in range(3, 9):
        want = (nu - 1,) + (1,) * (2 * nu - 2)
        assert want in {p.multiplicities for p in noether_solve(nu)}
    assert (3,) * 7 in {p.multiplicities for p in noether_solve(8)}
    for nu in range(2, 9):
        assert all(p.is_consistent() for p in noether_solve(nu))


FIELDS = (0, -3)  # Q and Q(sqrt -3)


def _random_jonq(rng, d):
    """A random element with vertical entries of degree <= 2 in y over
    Q(sqrt(d)), Q for d = 0."""
    def rnd():
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return Scalar(a, rng.randint(-1, 1) if d else 0, d)

    while True:
        A = [[[rnd() for _ in range(rng.randint(1, 3))] for _ in range(2)] for _ in range(2)]
        try:
            return JonqElement(A, [[rnd() for _ in range(2)] for _ in range(2)])
        except ValueError:  # a singular matrix; draw again
            pass


def test_jonquieres_group_law_matches_map_composition():
    rng = random.Random(7)
    for d in FIELDS:
        for _ in range(4):
            j1 = _random_jonq(rng, d)
            j2 = _random_jonq(rng, d)
            lhs = jonq_to_ratmap(jonq_compose(j1, j2))
            rhs = compose(jonq_to_ratmap(j1), jonq_to_ratmap(j2))
            assert lhs == rhs


def test_jonquieres_inverse():
    rng = random.Random(11)
    for d in FIELDS:
        for _ in range(4):
            j = _random_jonq(rng, d)
            inv = jonq_inverse(j)
            assert jonq_to_ratmap(jonq_compose(j, inv)).is_identity()
            assert jonq_to_ratmap(jonq_compose(inv, j)).is_identity()
            assert compose(jonq_to_ratmap(inv), jonq_to_ratmap(j)).is_identity()
            assert jonq_inverse(inv) == j


def test_jonquieres_identity_and_equality_up_to_scalars():
    ident = JonqElement.identity()
    assert jonq_to_ratmap(ident).is_identity()
    rng = random.Random(13)
    for d in FIELDS:
        for _ in range(3):
            j = _random_jonq(rng, d)
            assert jonq_compose(j, jonq_inverse(j)) == ident
            assert jonq_compose(ident, j) == j and jonq_compose(j, ident) == j
            # each matrix is a map only up to its own scalar
            scaled = JonqElement([[[v * 2 for v in p] for p in row] for row in j.vertical],
                                 [[v * Scalar(Fraction(-1, 3)) for v in row] for row in j.base])
            assert scaled == j
    j = JonqElement((([0, 1], 1), (1, 0)), ident.base)  # x -> y + 1/x
    assert j != ident and ident != j
    assert ident.__eq__(RatMap.identity()) is NotImplemented


def test_jonquieres_representative_is_one_per_class():
    """Scaling the vertical matrix by (y + 1) and a constant, and the base
    by a constant, gives the same fields, the same hash and one set
    element; the representative is reduced and its first entry monic."""
    rng = random.Random(17)
    for d in FIELDS:
        c = Scalar(2, 1 if d else 0, d)
        for _ in range(4):
            j = _random_jonq(rng, d)
            scaled = JonqElement([[pmul(pmul(list(p), [Scalar(1), Scalar(1)]), [c]) for p in row]
                                  for row in j.vertical],
                                 [[v * c for v in row] for row in j.base])
            assert scaled.vertical == j.vertical and scaled.base == j.base
            assert scaled == j and hash(scaled) == hash(j)
            assert len({j, scaled}) == 1
            entries = [p for row in j.vertical for p in row]
            assert all(type(p) is tuple and (not p or p[-1]) for p in entries)
            assert next(p for p in entries if p)[-1] == 1
            assert next(v for row in j.base for v in row if v) == 1


def test_jonquieres_constructor_takes_numbers_and_coefficient_lists():
    y = [0, 1]
    j = JonqElement(((y, Fraction(1, 2)), (Scalar(1), 0)), ((1, 0), (0, 1)))
    assert j.vertical == (((0, 1), (Fraction(1, 2),)), ((1,), ()))  # a = y is monic
    assert jonq_to_ratmap(j) == parse_ratmap("2*x*y + z^2 : 2*x*y : 2*x*z")
    with pytest.raises(ValueError):
        JonqElement(((y, y), (1, 1)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        JonqElement(((1, 0), (0, 1)), ((1, 2), (2, 4)))


def test_compose_reduces_degree_drop():
    # rho is an involution: the naive degree-4 composite collapses to 1
    h = compose(RHO, RHO)
    assert h.degree == 1
    assert h.removed_factor is not None and h.removed_factor.degree == 3


def test_apply_and_indeterminacy():
    p = ProjPoint([1, 1, 1])
    assert SIGMA.apply(p) == p
    assert SIGMA.apply(ProjPoint([1, 0, 0])) is None


def test_parse_rejects_mixed_degrees():
    with pytest.raises(Exception):
        parse_ratmap("x : y*z : z")


def test_zero_components_carry_the_map_degree():
    assert [c.degree for c in parse_ratmap("x*y : 0 : z^2").components] == [2, 2, 2]
    # RatMap itself sets it, for canonical and rescaled components alike
    for scale in (1, 3):
        f = RatMap((HomPoly.var("x") * scale, HomPoly.zero(), HomPoly.var("z")))
        assert [c.degree for c in f.components] == [1, 1, 1]
    # so a parsed map's components substitute as the images of one degree
    comps = parse_ratmap("x : 0 : z").components
    assert substitute(parse_poly("x*z"), comps) == parse_poly("x*z")
    assert compose(parse_ratmap("x*z : y*z : z^2"), parse_ratmap("x : 0 : z")) == \
        parse_ratmap("x : 0 : z")


def test_coefficient_digits_of_a_coefficient_beyond_str_limit():
    # 10^5000 + 1 has 5001 digits, past the 4300 that str() accepts on
    # Python 3.11; every other numerator and denominator here has 1 digit.
    x, y, z = (HomPoly.var(v) for v in "xyz")
    f = RatMap((x * (10 ** 5000 + 1), y, z))
    assert f.coefficient_digits() == 5001 + 11


def test_printing_a_coefficient_beyond_str_limit_is_a_resource_limit():
    x, y, z = (HomPoly.var(v) for v in "xyz")
    f = RatMap((x * (10 ** 5000 + 1), y, z))
    for obj in (f, f.components[0], f.components[0].terms[(1, 0, 0)]):
        with pytest.raises(ResourceLimit, match="have 5004 digits"):
            str(obj)


def test_projective_points_compare_and_hash_by_canonical_coords():
    w = Scalar(0, 1, -3)
    for u, k in (([2, 4, 6], Fraction(-3, 7)), ([0, w, 1], w), ([1 + w, 0, 2], 2 - w)):
        p, q = ProjPoint(u), ProjPoint([k * Scalar.coerce(c) for c in u])
        assert p == q and hash(p) == hash(q)
    assert ProjPoint([1, 2, 3]) != ProjPoint([1, 2, 4])
    assert ProjPoint([1, w, 0]) != ProjPoint([1, -w, 0])
    assert ProjPoint([0, 1, 0]) != ProjPoint([1, 0, 0])


def _assert_base_points(f, qc, count):
    assert not qc.field_obstructed
    assert len(qc.ind_points) == count == len(set(qc.ind_points))
    assert all(f.apply(p) is None for p in qc.ind_points)


def test_sigma3_base_points_over_q_sqrt_minus_3():
    f = compose(SIGMA, RatMap.from_matrix([[1, W, 0], [0, 1, 1], [1, 0, 2]]))
    qc = quadratic_classify(f)
    assert qc.stratum == "Sigma3"
    _assert_base_points(f, qc, 3)
    assert indeterminacy_points_quadratic(f) == (qc.ind_points, False)


def test_base_points_of_rational_conjugates():
    rng = random.Random(11)
    for _ in range(4):
        while True:
            M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
                 for _ in range(3)]
            if mat_inverse(M) is not None:
                break
        for f, stratum, count in ((SIGMA, "Sigma3", 3), (RHO, "Sigma2", 2), (TAU, "Sigma1", 1)):
            g = _conjugate(f, M)
            qc = quadratic_classify(g)
            assert qc.stratum == stratum
            _assert_base_points(g, qc, count)


def test_indeterminacy_points_need_a_quadratic_birational_map():
    for text in ("x^2 : y^2 : z^2", "x : y : z", "y^2*z : x^2*z + x*y^2 : x*y*z + y^3"):
        with pytest.raises(ValueError, match="not a quadratic birational map"):
            indeterminacy_points_quadratic(parse_ratmap(text))
