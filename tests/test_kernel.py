"""The compose kernel against an independent path.

`compose` substitutes in the affine chart z = 1: over Q on Kronecker-packed
ints, and on int pairs over Q(sqrt d) or when the packed ints would pass
`poly._PACK_BITS`, which the int-pair tests set to 0 so that every
composition over Q takes that route.  The reference substitutes with
HomPoly arithmetic and reduces the trivariate triple with `normalize`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from cremona import poly
from cremona.catalog import E_INVOLUTION, RHO, SIGMA, TAU, f_ab
from cremona.errors import ZeroMap
from cremona.linalg import mat_inverse
from cremona.poly import HomPoly, compose_reduce, parse_poly, substitute
from cremona.ratmap import RatMap, compose, normalize, parse_ratmap
from cremona.scalars import Scalar

SQRT_M3 = Scalar(0, 1, -3)

small_int = st.integers(min_value=-2, max_value=2)
small_rational = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def linear_maps(draw):
    rows = draw(st.lists(st.lists(small_int, min_size=3, max_size=3),
                         min_size=3, max_size=3))
    M = [[Scalar(v) for v in row] for row in rows]
    if mat_inverse(M) is None:
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        M = [[Scalar(v) for v in row] for row in rows]
    return RatMap.from_matrix(M)


# maps with a zero component, whose compositions may degenerate
ZERO_COMPONENT = [
    RatMap((HomPoly.var("x"), HomPoly.zero(1), HomPoly.var("z"))),
    RatMap((parse_poly("y^2 - x*z"), HomPoly.zero(2), parse_poly("x*y"))),
]

letters = st.one_of(
    st.sampled_from([SIGMA, RHO, TAU, E_INVOLUTION, *ZERO_COMPONENT]),
    linear_maps(),
    st.builds(f_ab, small_rational, small_rational),
)


@st.composite
def words(draw):
    """A map composed from up to two letters, so its degree stays <= 4."""
    out = draw(letters)
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        try:
            out = compose(draw(letters), out)
        except ZeroMap:
            reject()
    return out


@st.composite
def triples(draw):
    """The components of a word, each times its own rational, so that the
    components of a triple have different denominators."""
    nonzero = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))
    scales = draw(st.lists(nonzero, min_size=3, max_size=3))
    return tuple(c * s for c, s in zip(draw(words()).components, scales))


def _reference(f, g):
    return normalize([substitute(c, g) for c in f])


def _same_factor(p, q):
    if p is None or q is None:
        return p is None and q is None
    return p.degree == q.degree and p.monic() == q.monic()


def _check_against_reference(f, g):
    """compose_reduce on the triples f and g against the reference; when
    every component of the reference vanishes, the map must be ZeroMap."""
    comps, factor = compose_reduce(f, g)
    try:
        ref = _reference(f, g)
    except ZeroMap:
        assert not any(comps)
        return
    h = RatMap(comps)
    assert h.degree == ref.degree
    assert h == ref
    assert _same_factor(factor, ref.removed_factor)


@settings(max_examples=40, deadline=None)
@given(triples(), triples())
def test_compose_matches_substitute_then_normalize(f, g):
    _check_against_reference(f, g)


@settings(max_examples=40, deadline=None)
@given(triples(), triples())
def test_compose_on_int_pairs_matches_substitute_then_normalize(f, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_PACK_BITS", 0)
        _check_against_reference(f, g)


@settings(max_examples=10, deadline=None)
@given(small_rational, triples())
def test_compose_over_sqrt_m3_matches_reference(b, g):
    # one route: over Q(sqrt d) compose always substitutes on int pairs
    _check_against_reference(f_ab(SQRT_M3, b).components, g)


@pytest.mark.parametrize("pack_bits", [poly._PACK_BITS, 0], ids=["packed", "int pairs"])
def test_zero_components_and_a_degenerate_composition(pack_bits, monkeypatch):
    monkeypatch.setattr(poly, "_PACK_BITS", pack_bits)
    h = compose(parse_ratmap("x : 0 : z"), parse_ratmap("x^2 : y^2 : z^2"))
    assert h == parse_ratmap("x^2 : 0 : z^2") and h.removed_factor is None
    # (x : 0 : 0) maps the plane to the base point (1 : 0 : 0) of sigma
    x = HomPoly.var("x")
    with pytest.raises(ZeroMap):
        compose(SIGMA, RatMap((x, HomPoly.zero(1), HomPoly.zero(1))))


def test_int_pairs_give_the_fixed_results(monkeypatch):
    monkeypatch.setattr(poly, "_PACK_BITS", 0)
    test_compose_removes_joint_content_and_z_power()
    test_compose_gives_primitive_components_and_the_monic_gcd()


def test_compose_removes_joint_content_and_z_power():
    # sigma o sigma = (x^2yz : xy^2z : xyz^2): factor xyz, components x, y, z
    h = compose(SIGMA, SIGMA)
    assert h.is_identity()
    assert h.removed_factor == HomPoly.var("x") * HomPoly.var("y") * HomPoly.var("z")
    # scaled components keep the same primitive integer form
    f = RatMap(tuple(c * Fraction(3, 7) for c in f_ab(1, 2).components))
    assert compose(f, f_ab(1, 2)).components == compose(f_ab(1, 2), f_ab(1, 2)).components


def test_compose_gives_primitive_components_and_the_monic_gcd():
    # The substituted triple is divided by its gcd made monic in lex order
    # with x > y (here 2x^2 + xy -> x^2 + xy/2), and the map keeps the
    # primitive integer components with a positive leading coefficient, not
    # the factor 2 that dividing by the monic gcd leaves in them.
    h = compose(f_ab(1, 2), f_ab(1, 2))
    assert str(h) == ("4*x^2 + 2*x*y + 2*x*z + y*z : 2*x^2 + 3*x*z + z^2"
                      " : 3*x^2 + x*y + x*z")
    assert str(h.removed_factor) == "x^2 + (1/2)*x*y"
