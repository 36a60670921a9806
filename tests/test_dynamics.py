"""Degree growth and stability probes."""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import cremona.dynamics as dynamics
import cremona.poly as poly
import cremona.ratmap as ratmap
from cremona.catalog import PHI3, PSI, RHO, TAU, f_ab, f_alphabeta, mcmullen_map, phi_map
from cremona.dynamics import (
    degree_sequence,
    growth_classify,
    lambda_estimate,
    stability_probe,
)
from cremona.errors import DegreeMismatch
from cremona.linalg import mat_inverse
from cremona.poly import (
    HomPoly,
    _chart,
    _divide_by_line,
    _jacobian_lines,
    _packed_substitute,
    _unpack,
    divide_exact,
    parse_poly,
    substitute,
)
from cremona.ratmap import RatMap, _next_iterate, compose, iterate, parse_ratmap
from cremona.scalars import Scalar

SIGMA = parse_ratmap("y*z : x*z : x*y")
PLASTIC = 1.324717957244746  # the real root of x^3 - x - 1
GOLDEN = (1 + 5 ** 0.5) / 2


def test_involution_is_bounded_with_period_two():
    seq = degree_sequence(SIGMA, 8)
    assert seq.degrees[:4] == [2, 1, 2, 1]
    assert seq.period == 2
    assert growth_classify(seq).label == "Bounded"


def test_phi3_degrees_constant():
    seq = degree_sequence(phi_map(3), 10)
    assert seq.degrees == [3] * 10
    assert growth_classify(seq).label == "Bounded"


def test_linear_growth_family():
    f = f_alphabeta(2, 3)
    seq = degree_sequence(f, 12)
    assert seq.degrees == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]
    cls = growth_classify(seq)
    assert cls.label == "Linear"
    assert cls.lambda_estimate == 1.0


def test_exponential_growth_bk_family():
    seq = degree_sequence(f_ab(1, 2), 12)
    assert seq.degrees[:6] == [2, 2, 3, 4, 5, 7]
    cls = growth_classify(seq)
    assert cls.label == "Exponential"
    lam = lambda_estimate(seq)
    assert abs(lam - 1.32471795) / 1.32471795 < 0.05


@pytest.mark.parametrize("f", [f_ab(1, 2), mcmullen_map(1, 2), f_ab(Scalar(0, 1, -3), 2)])
def test_plastic_number_from_eight_iterates(f):
    # 2, 2, 3, 4, 5, 7, 9, 12 follow d(n+3) = d(n+1) + d(n), of order 3
    seq = degree_sequence(f, 8)
    assert seq.degrees == [2, 2, 3, 4, 5, 7, 9, 12]
    cls = growth_classify(seq)
    assert cls.label == "Exponential"
    assert abs(cls.lambda_estimate - PLASTIC) < 1e-12
    assert cls.evidence == {"recurrence": [-1, -1, 0, 1], "lambda_class": "Pisot"}


def test_monomial_map_is_pisot():
    seq = degree_sequence(parse_ratmap("x^2*y : x*y*z : z^3"), 6)
    assert seq.degrees == [3, 8, 21, 55, 144, 377]
    cls = growth_classify(seq)
    assert cls.label == "Exponential"
    assert cls.evidence["lambda_class"] == "Pisot"
    assert abs(cls.lambda_estimate - (3 + 5 ** 0.5) / 2) < 1e-12


# (closed form d(n), label, lambda, chi constant term first); chi has order L
CLOSED_FORMS = [
    (lambda n: (2, 3, 5)[n % 3], "Bounded", 1.0, [-1, 0, 0, 1]),
    (lambda n: 3 + 2 * n, "Linear", 1.0, [1, -2, 1]),
    (lambda n: 1 + n + n * n, "Quadratic", 1.0, [-1, 3, -3, 1]),
    (lambda n: round(GOLDEN ** (n + 3) / 5 ** 0.5), "Exponential", GOLDEN, [-1, -1, 1]),
    (lambda n: 2 ** n, "Exponential", 2.0, [-2, 1]),
]


@pytest.mark.parametrize("closed_form", CLOSED_FORMS)
@pytest.mark.parametrize("transient", [(), (9,), (1, 9)])
def test_closed_forms_need_2L_plus_2_terms(closed_form, transient):
    # every term before the recurrence takes hold adds a factor x to chi
    d, label, lam, chi = closed_form
    chi = [0] * len(transient) + chi
    terms = 2 * (len(chi) - 1) + 2
    degs = list(transient) + [d(n) for n in range(terms - len(transient))]
    cls = growth_classify(degs)
    assert cls.label == label
    assert abs(cls.lambda_estimate - lam) < 1e-12
    assert cls.evidence["recurrence"] == chi
    short = growth_classify(degs[:-1])
    assert short.label == "Undetermined"
    assert short.lambda_estimate == lambda_estimate(degs[:-1])
    assert short.evidence == {}


def test_non_integral_recurrence_is_undetermined():
    # 16 (3/2)^n: the shortest recurrence d(n+1) = 3/2 d(n) is not over Z
    degs = [16, 24, 36, 54, 81]
    assert dynamics._recurrence(degs) is None
    cls = growth_classify(degs)
    assert cls.label == "Undetermined"
    assert cls.lambda_estimate == lambda_estimate(degs)


def test_sqrt_m3_iterates_keep_small_coefficients(monkeypatch):
    # the canonical representative bounds the content over Q(sqrt -3) as
    # over Q: the step-11 iterate has 86 018 digits (1 292 537 without it)
    digits = []

    def recording(f, g):
        h = compose(f, g)
        digits.append(h.coefficient_digits())
        return h

    monkeypatch.setattr(ratmap, "compose", recording)  # the step's fallback over Q(sqrt -3)
    seq = degree_sequence(f_ab(Scalar(0, 1, -3), 2), 13)
    assert seq.degrees == [2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49]
    assert digits[11 - 2] <= 100_000


def test_submultiplicative_assertion_holds():
    for f in (SIGMA, f_ab(1, 2)):
        seq = degree_sequence(f, 8)
        d = seq.degrees
        assert all(d[i + 1] <= d[i] * d[0] for i in range(len(d) - 1))


def test_submultiplicativity_failure_is_a_typed_error(monkeypatch):
    quintic = parse_ratmap("x^5 : y^5 : z^5")
    monkeypatch.setattr(dynamics, "_next_iterate", lambda f, cur, lines: quintic)
    with pytest.raises(DegreeMismatch):
        degree_sequence(SIGMA, 3)  # degrees 2, 5: 5 > 2 * 2


def test_lambda_estimate_requires_two_terms():
    with pytest.raises(ValueError):
        lambda_estimate([2])


@pytest.mark.parametrize("degs", [[3, 0, 0, 0, 0], [2, 2, -1], [0]])
def test_degrees_below_one_are_a_value_error(degs):
    with pytest.raises(ValueError, match="at least 1"):
        growth_classify(degs)
    with pytest.raises(ValueError, match="at least 1"):
        lambda_estimate(degs)


def test_default_horizon_follows_the_degree():
    # 12 iterates for a quadratic map, 8 for a cubic one
    assert degree_sequence(SIGMA).degrees == [2, 1] * 6
    assert degree_sequence(phi_map(3)).degrees == [3] * 8


def test_stability_probe_sigma_immediate_collision():
    rep = stability_probe(SIGMA, N=5)
    # each contracted line of sigma lands on an indeterminacy point at once
    assert rep.collisions and all(k == 0 for (_t, k, _p) in rep.collisions)


def test_stability_probe_clean_map():
    # a Henon-type map is algebraically stable on the plane
    f = parse_ratmap("y*z : y^2 - x*z : z^2")
    rep = stability_probe(f, N=6)
    assert rep.horizon == 6
    assert rep.collisions == []


def test_stability_probe_bk_family_obstructed():
    # the contraction target (0:1:0) of f_ab is itself indeterminate
    rep = stability_probe(f_ab(1, 2), N=6)
    assert any(k == 0 for (_t, k, _p) in rep.collisions)


# -- cur o f on packed ints against compose(f, cur) ------------------------------

def _unitriangular_conjugate(f, a, b, c):
    """L^-1 o f o L for L = [[1, a, b], [0, 1, c], [0, 0, 1]], the shape of
    the benchmark's growth-q maps."""
    M = [[Scalar(v) for v in row] for row in ((1, a, b), (0, 1, c), (0, 0, 1))]
    return compose(RatMap.from_matrix(mat_inverse(M)), compose(f, RatMap.from_matrix(M)))


ON_LINES = [
    ("sigma", SIGMA), ("rho", RHO), ("tau", TAU), ("f_ab(1, 2)", f_ab(1, 2)),
    ("mcmullen(1, 2)", mcmullen_map(1, 2)), ("f_alphabeta(2, 3)", f_alphabeta(2, 3)),
    ("phi3", PHI3), ("monomial", parse_ratmap("x^2*y : x*y*z : z^3")),
] + [(f"U{abc}", _unitriangular_conjugate(f_ab(1, 2), *abc))
     for abc in itertools.product((-1, 1), repeat=3)]


def _degree(factor):
    return factor.degree if factor is not None else 0


@pytest.mark.parametrize("name,f", ON_LINES, ids=[name for name, _f in ON_LINES])
def test_step_on_lines_matches_compose(name, f):
    # the same iterates as compose(f, cur), with removed factors of one degree
    lines = _jacobian_lines(f.components)
    assert lines is not None
    old = new = f
    for _k in range(2, 12):
        old = compose(f, old)
        new = _next_iterate(f, new, lines)
        assert new == old
        assert _degree(new.removed_factor) == _degree(old.removed_factor)


@pytest.mark.parametrize("name,f", ON_LINES, ids=[name for name, _f in ON_LINES])
def test_removed_factor_is_the_gcd_of_cur_after_f(name, f):
    # the product of the peeled lines and the power of z is the monic gcd
    # that compose_reduce finds for cur o f
    lines = _jacobian_lines(f.components)
    cur = f
    for _k in range(2, 7):
        step = _next_iterate(f, cur, lines)
        assert step.removed_factor == compose(cur, f).removed_factor
        cur = step


def test_sigma_takes_z_from_the_degree_drop():
    # det Jac(sigma) = 2xyz: x and y are peeled, z is read off the chart degree
    assert sorted(_jacobian_lines(SIGMA.components)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    sigma2 = _next_iterate(SIGMA, SIGMA, _jacobian_lines(SIGMA.components))
    assert sigma2.is_identity()
    assert sigma2.removed_factor == parse_poly("x*y*z")
    assert degree_sequence(SIGMA, 9).period == 2


SHARED = RatMap(tuple(parse_poly(t) * parse_poly("x + y") for t in ("y*z", "x*z", "x*y")))
FALLBACKS = [
    # det Jac = -2z(x^2 + y^2) does not split into lines over Q
    ("x^2 + y^2 : x*z : y*z", parse_ratmap("x^2 + y^2 : x*z : y*z"), [2, 4, 8, 14, 24, 40], 0),
    ("det Jac = 0", parse_ratmap("x^2 : x*y : y^2"), [2, 2, 2, 2, 2, 2], 1),
    ("psi", PSI, [3, 7, 15, 30], 0),
    ("shared factor", SHARED, [3, 1, 2, 1, 2, 1], 2),
    ("f_ab(sqrt -3, 2)", f_ab(Scalar(0, 1, -3), 2), [2, 2, 3, 4, 5, 7, 9, 12], 0),
]


@pytest.mark.parametrize("name,f,degrees,period", FALLBACKS, ids=[v[0] for v in FALLBACKS])
def test_fallbacks_keep_compose(name, f, degrees, period, monkeypatch):
    assert _jacobian_lines(f.components) is None
    calls = []

    def recording(g, h):
        calls.append(1)
        return compose(g, h)

    monkeypatch.setattr(ratmap, "compose", recording)
    seq = degree_sequence(f, len(degrees))
    assert seq.degrees == degrees
    assert seq.period == period
    assert len(calls) == len(degrees) - 1


def test_packed_ints_past_the_limit_fall_back_to_compose(monkeypatch):
    # from the step whose cached powers would pass the limit on, compose(f, cur)
    monkeypatch.setattr(poly, "_PACK_BITS", 50_000)
    calls = []

    def recording(g, h):
        calls.append(h.degree)
        return compose(g, h)

    monkeypatch.setattr(ratmap, "compose", recording)
    seq = degree_sequence(f_ab(1, 2), 9)
    assert seq.degrees == [2, 2, 3, 4, 5, 7, 9, 12, 16]
    assert calls and calls[0] > 2


@pytest.mark.parametrize("f", [ON_LINES[-1][1], f_ab(Scalar(0, 1, -3), 2)],
                         ids=["on lines", "compose"])
def test_iterate_runs_the_same_step(f):
    cur = f
    for _ in range(5):
        cur = compose(f, cur)
    it = iterate(f, 6)
    assert it == cur
    assert _degree(it.removed_factor) == _degree(cur.removed_factor)


def _forms(degree, bound):
    mons = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coef = st.integers(min_value=-bound, max_value=bound).filter(bool)
    return st.dictionaries(st.sampled_from(mons), coef, min_size=1, max_size=8).map(
        lambda t: HomPoly(t, degree))


@st.composite
def substitutions(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    c = draw(_forms(n, 10 ** 6))
    fs = tuple(draw(_forms(m, 50)) for _ in range(3))
    return c, fs


def _rows_of(p):
    """rows[j][i] of the z = 1 chart of p, as `_unpack` gives them."""
    top = max((i + j for i, j, _k in p.terms), default=0)
    rows = [[0] * (top - j + 1) for j in range(top + 1)]
    for (i, j, _k), v in p.terms.items():
        rows[j][i] = int(v.a)
    for row in rows:
        while row and not row[-1]:
            row.pop()
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _packed(c, fs):
    n, top = c.degree, c.degree * fs[0].degree
    (rows,) = _packed_substitute([{e: int(v.a) for e, v in c.terms.items()}], n,
                                 _chart(list(fs))[1], top)
    while rows and not rows[-1]:
        rows.pop()
    return rows


@settings(max_examples=60, deadline=None)
@given(substitutions())
# one coefficient exactly at the packing bound |c|_1 * max |f_t|_1 ^ n, of
# either sign, and a result that cancels to zero
@example((HomPoly({(3, 0, 0): 7}, 3), (HomPoly({(2, 0, 0): 5}, 2),) * 3))
@example((HomPoly({(3, 0, 0): -7}, 3), (HomPoly({(2, 0, 0): 5}, 2),) * 3))
@example((HomPoly({(1, 0, 0): 1, (0, 1, 0): 1}, 1),
          (HomPoly({(1, 0, 0): 255}, 1), HomPoly({(1, 0, 0): -255}, 1), HomPoly({(0, 1, 0): 1}, 1))))
def test_packed_substitution_matches_substitute(cf):
    c, fs = cf
    assert _packed(c, fs) == _rows_of(substitute(c, fs))


@pytest.mark.parametrize("k", [8, 16, 64])
def test_unpack_reads_balanced_digits_at_both_ends(k):
    # coefficients -2^(k-1) and 2^(k-1) - 1, the ends of a slot, and their
    # neighbours, in a chart of total degree 2 (width 3)
    lo, hi = -(1 << (k - 1)), (1 << (k - 1)) - 1
    rows = [[lo, hi, -1], [hi, lo], [lo + 1]]
    packed = sum(v << (k * (i + 3 * j)) for j, row in enumerate(rows) for i, v in enumerate(row))
    assert _unpack(packed, k, 3, 2) == rows


@settings(max_examples=80, deadline=None)
@given(_forms(3, 20),
       st.tuples(*[st.integers(-3, 3)] * 3).filter(lambda t: (t[0] or t[1]) and math.gcd(*t) == 1),
       st.booleans())
# y over x + 2y: the first quotient 1/2 is not an int, and row 0 alone
# would not show it
@example(HomPoly({(0, 1, 0): 1}, 1), (1, 2, 0), False)
def test_divide_by_line_matches_divide_exact(h, line, times):
    line = HomPoly({(1, 0, 0): line[0], (0, 1, 0): line[1], (0, 0, 1): line[2]}, 1)
    if times:
        h = h * line
    a, b, c = (int(line.coefficient(e).a) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    got = _divide_by_line(_rows_of(h), a, b, c)
    want = divide_exact(h, line)  # over Q; a primitive line divides over Z alike
    assert (got is None) == (want is None)
    if want is not None:
        assert got == _rows_of(want)
