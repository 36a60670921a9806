"""The compose kernel against an independent path.

`compose` substitutes in the affine chart z = 1, over ZZ for rational maps
(common factor from gcd cofactors) and on int pairs for Q(sqrt d).  The
reference substitutes with HomPoly arithmetic and reduces the trivariate
triple with `normalize`.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cremona.catalog import E_INVOLUTION, RHO, SIGMA, TAU, f_ab
from cremona.linalg import mat_inverse
from cremona.poly import HomPoly, substitute
from cremona.ratmap import RatMap, compose, normalize
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


letters = st.one_of(
    st.sampled_from([SIGMA, RHO, TAU, E_INVOLUTION]),
    linear_maps(),
    st.builds(f_ab, small_rational, small_rational),
)


@st.composite
def words(draw):
    """A map composed from up to two letters, so its degree stays <= 4."""
    out = draw(letters)
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        out = compose(draw(letters), out)
    return out


def _reference(f, g):
    return normalize([substitute(c, g.components) for c in f.components])


def _same_factor(p, q):
    if p is None or q is None:
        return p is None and q is None
    return p.degree == q.degree and p.monic() == q.monic()


def _check_against_reference(f, g):
    h = compose(f, g)
    ref = _reference(f, g)
    assert h.degree == ref.degree
    assert h == ref
    assert _same_factor(h.removed_factor, ref.removed_factor)


@settings(max_examples=40, deadline=None)
@given(words(), words())
def test_compose_matches_substitute_then_normalize(f, g):
    _check_against_reference(f, g)


@settings(max_examples=10, deadline=None)
@given(small_rational, words())
def test_compose_over_sqrt_m3_matches_reference(b, g):
    _check_against_reference(f_ab(SQRT_M3, b), g)


def test_compose_removes_joint_content_and_z_power():
    # sigma o sigma = (x^2yz : xy^2z : xyz^2): factor xyz, components x, y, z
    h = compose(SIGMA, SIGMA)
    assert h.is_identity()
    assert h.removed_factor == HomPoly.var("x") * HomPoly.var("y") * HomPoly.var("z")
    # scaled components keep the same primitive integer form
    f = RatMap(tuple(c * Fraction(3, 7) for c in f_ab(1, 2).components))
    assert compose(f, f_ab(1, 2)).components == compose(f_ab(1, 2), f_ab(1, 2)).components


def test_compose_gives_primitive_components_and_the_monic_gcd():
    # The substituted triple is divided by its gcd made monic in sympy's lex
    # order (here 2x^2 + xy -> x^2 + xy/2), and the map keeps the primitive
    # integer components with a positive leading coefficient, not the
    # factor 2 that dividing by the monic gcd leaves in them.
    h = compose(f_ab(1, 2), f_ab(1, 2))
    assert str(h) == ("4*x^2 + 2*x*y + 2*x*z + y*z : 2*x^2 + 3*x*z + z^2"
                      " : 3*x^2 + x*y + x*z")
    assert str(h.removed_factor) == "x^2 + (1/2)*x*y"
