"""Degree growth and stability probes."""

import pytest

import cremona.dynamics as dynamics
from cremona.catalog import f_ab, f_alphabeta, phi_map
from cremona.dynamics import (
    degree_sequence,
    growth_classify,
    lambda_estimate,
    stability_probe,
)
from cremona.errors import DegreeMismatch
from cremona.ratmap import parse_ratmap

SIGMA = parse_ratmap("y*z : x*z : x*y")


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
    assert seq.degrees == list(range(2, 14))[:1] + seq.degrees[1:]  # starts at 2
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
