"""Degree growth and stability probes."""

import pytest

import cremona.dynamics as dynamics
from cremona.catalog import f_ab, f_alphabeta, mcmullen_map, phi_map
from cremona.dynamics import (
    degree_sequence,
    growth_classify,
    lambda_estimate,
    stability_probe,
)
from cremona.errors import DegreeMismatch
from cremona.ratmap import compose, parse_ratmap
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

    monkeypatch.setattr(dynamics, "compose", recording)
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
    monkeypatch.setattr(dynamics, "compose", lambda f, g: quintic)
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
