"""Plane polynomial automorphisms: decomposition, inversion, Henon type."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cremona.errors import NOT_AUTOMORPHISM
from cremona.polyaut import (
    PolyAut,
    aut_compose,
    aut_inverse,
    henon_classify,
    jung_decompose,
    parse_polyaut,
)
from cremona.poly import BiPoly
from cremona.scalars import Scalar

X = BiPoly.var("x")
Y = BiPoly.var("y")


def test_decomposition_recomposes():
    f = parse_polyaut("x + (y + x^2)^2 + (y + x^2)^3, y + x^2")
    word = jung_decompose(f)
    assert word is not NOT_AUTOMORPHISM
    assert word.recompose() == f
    kinds = [(fac.kind, fac.degree) for fac in word.factors]
    assert kinds == [("elementary", 3), ("affine", 1),
                     ("elementary", 2), ("affine", 1)]


def test_non_automorphism_detected():
    # first component starts with y instead of x: fails injectivity
    f = parse_polyaut("y + (y + x^2)^2 + (y + x^2)^3, y + x^2")
    assert jung_decompose(f) is NOT_AUTOMORPHISM
    assert jung_decompose(parse_polyaut("x^2, y")) is NOT_AUTOMORPHISM
    # top(p) = x*y + y^2 holds top(q^2) = y^2 with coefficient 1 but is not 1 * y^2
    assert jung_decompose(parse_polyaut("x*y + y^2, y")) is NOT_AUTOMORPHISM


def test_henon_classification():
    h = parse_polyaut("y, y^2 - x")
    rep = henon_classify(h)
    assert rep.is_henon and rep.dyn_degree == 2
    rep2 = henon_classify(aut_compose(h, h))
    assert rep2.is_henon and rep2.dyn_degree == 4


def test_triangular_is_not_henon():
    f = parse_polyaut("2*x + y^3 + 1, y + 5")
    rep = henon_classify(f)
    assert not rep.is_henon and rep.dyn_degree == 1


def test_inverse_round_trip():
    f = parse_polyaut("x + (y + x^2)^2 + (y + x^2)^3, y + x^2")
    g = aut_inverse(f)
    assert g is not NOT_AUTOMORPHISM
    assert aut_compose(f, g).is_identity()
    assert aut_compose(g, f).is_identity()


def _random_word(rng, nfactors):
    out = PolyAut.identity()
    for i in range(nfactors):
        if i % 2 == 0:
            k = rng.randint(2, 3)
            c = Scalar(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            fac = PolyAut((X + Y ** k * c, Y))
        else:
            while True:
                a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
                if a * d - b * c:
                    break
            fac = PolyAut((X * a + Y * b + BiPoly.coerce(rng.randint(-1, 1)),
                           X * c + Y * d))
        out = aut_compose(out, fac)
    return out


def test_random_words_recompose():
    rng = random.Random(3)
    for _ in range(6):
        f = _random_word(rng, rng.randint(2, 4))
        word = jung_decompose(f)
        assert word is not NOT_AUTOMORPHISM
        assert word.recompose() == f
        g = aut_inverse(f)
        assert aut_compose(f, g).is_identity()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=2, max_value=4))
def test_elementary_factors_invert(c, k):
    f = PolyAut((X + Y ** k * Scalar(c), Y))
    g = aut_inverse(f)
    assert aut_compose(f, g).is_identity()


def test_projectivization_degree():
    h = parse_polyaut("y, y^2 - x")
    F = h.to_ratmap()
    assert F.degree == 2


def test_conjugate_of_a_henon_map_keeps_its_dynamical_degree():
    # g = e o h o e^-1 has degree 9, and its iterates have degrees 9, 18, 36
    h = parse_polyaut("y, y^2 - x")
    e = parse_polyaut("x + y^3, y")
    g = aut_compose(e, aut_compose(h, aut_inverse(e)))
    assert g.degree == 9
    rep = henon_classify(g)
    assert rep.is_henon and rep.dyn_degree == 2


def test_swap_conjugate_of_an_elementary_map_is_not_henon():
    # (x, y + x^2) = s o (x + y^2, y) o s for the swap s: iterates of degree 2
    f = parse_polyaut("x, y + x^2")
    assert aut_compose(f, f).degree == 2
    rep = henon_classify(f)
    assert not rep.is_henon and rep.dyn_degree == 1


def _random_aut(rng):
    """An alternating word of affine and elementary factors of degree 2-3,
    conjugated by an elementary map half of the time."""
    out = _random_word(rng, rng.randint(2, 5))
    if rng.random() < 0.5:
        e = _random_word(rng, 1)
        out = aut_compose(e, aut_compose(out, aut_inverse(e)))
    return out


def test_dynamical_degree_is_the_ratio_of_iterate_degrees():
    rng = random.Random(3)
    henon = 0
    for _ in range(30):
        f = _random_aut(rng)
        while f.degree > 4:
            f = _random_aut(rng)
        rep = henon_classify(f)
        f2 = aut_compose(f, f)
        f3 = aut_compose(f, f2)
        if rep.is_henon:
            henon += 1
            assert f2.degree == rep.dyn_degree * f.degree
            assert f3.degree == rep.dyn_degree * f2.degree
        else:
            assert rep.dyn_degree == 1
            assert f3.degree <= f.degree and f2.degree <= f.degree
    assert 0 < henon < 30
