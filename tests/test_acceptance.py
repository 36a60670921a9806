"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `CRITERION k: PASS/FAIL` line so the suite log
doubles as a checklist.
"""

import cmath
import functools
import random
from fractions import Fraction

import pytest

from cremona.catalog import (
    ACTION_16_CHARPOLY_FACTORS,
    CUBIC_TABLE,
    E_INVOLUTION,
    ETA,
    GIZATULLIN_H,
    LEHMER,
    M_SIGMA,
    PHI3,
    PHI3_ACTION_16,
    PSI,
    PSI_ACTION_16,
    PSI_INVERSE,
    RHO,
    SIGMA,
    TAU,
    _conjugacy_holds,
    bk_matrix,
    chi_n,
    conjugation_matrix_phi3,
    conjugation_matrix_psi,
    f_ab,
    f_ab_pstar,
    f_alphabeta,
    invariant_cubic,
    phi_alpha_phi3,
    phi_alpha_psi,
    phi_j,
    phi_map,
)
from cremona.dynamics import degree_sequence, growth_classify, lambda_estimate
from cremona.errors import NOT_AUTOMORPHISM, NOT_CONTRACTED, NOT_FOUND
from cremona.linalg import charpoly_int, mat_inverse, mat_mul
from cremona.numerics import cos_parameter, iterate_family, mobius_period, poly_roots
from cremona.poly import LinearForm, divide_exact, substitute
from cremona.polyaut import aut_compose, henon_classify, jung_decompose, parse_polyaut
from cremona.ratmap import (
    ProjPoint,
    RatMap,
    compose,
    inverse,
    is_contracted_line,
    noether_solve,
    parse_ratmap,
    quadratic_classify,
)
from cremona.scalars import Scalar
from cremona.unipoly import pmul
from cremona.weyl import (
    char_poly,
    group_order_bfs,
    salem_classify,
    spectral_radius,
    standard_element,
    strip_cyclotomic,
)


@pytest.fixture(autouse=True)
def banner(request, capsys):
    yield
    name = request.node.name
    num = int(name.split("_")[2])
    failed = getattr(request.node, "rep_failed", False)
    with capsys.disabled():
        print(f"CRITERION {num}: {'FAIL' if failed else 'PASS'}")


def test_criterion_01_involutions():
    for f in (SIGMA, RHO, TAU):
        assert compose(f, f).is_identity()


def _random_linear(rng):
    while True:
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        Minv = mat_inverse(M)
        if Minv is not None:
            return M, Minv


def test_criterion_02_quadratic_strata():
    assert quadratic_classify(SIGMA).stratum == "Sigma3"
    assert quadratic_classify(RHO).stratum == "Sigma2"
    assert quadratic_classify(TAU).stratum == "Sigma1"
    squares = parse_ratmap("x^2 : y^2 : z^2")
    qc = quadratic_classify(squares)
    assert qc.stratum == "NotBirational" or inverse(squares, 2) is NOT_FOUND
    rng = random.Random(2024)
    cases = [SIGMA, RHO, TAU]
    for i in range(20):
        f = cases[i % 3]
        want = quadratic_classify(f).stratum
        M, Minv = _random_linear(rng)
        g = compose(RatMap.from_matrix(M),
                    compose(f, RatMap.from_matrix(Minv)))
        assert quadratic_classify(g).stratum == want


def test_criterion_03_inverse_reconstruction():
    g = inverse(PSI, 3)
    assert g is not NOT_FOUND and g == PSI_INVERSE
    for f in CUBIC_TABLE:
        h = inverse(f, 3)
        assert h is not NOT_FOUND and h.degree == 3
        assert compose(f, h).is_identity() and compose(h, f).is_identity()


def test_criterion_04_noether_relations():
    assert [p.multiplicities for p in noether_solve(2)] == [(1, 1, 1)]
    for nu in range(3, 9):
        want = (nu - 1,) + (1,) * (2 * nu - 2)
        assert want in {p.multiplicities for p in noether_solve(nu)}
    assert (3,) * 7 in {p.multiplicities for p in noether_solve(8)}


def test_criterion_05_degree_growth():
    assert degree_sequence(phi_map(3), 10).degrees == [3] * 10
    cls = growth_classify(degree_sequence(f_alphabeta(2, 3), 12))
    assert cls.label == "Linear"
    seq = degree_sequence(f_ab(1, 2), 12)
    lam = lambda_estimate(seq)
    assert abs(lam - 1.32472) / 1.32472 < 0.05


def test_criterion_06_monomial_rule():
    # the monomial map with exponent matrix [[2, 1], [1, 1]]
    f = parse_ratmap("x^2*y : x*y*z : z^3")
    lam = lambda_estimate(degree_sequence(f, 10))
    golden = (3 + 5 ** 0.5) / 2
    assert abs(lam - golden) / golden < 0.02


def test_criterion_07_jung_decomposition():
    f = parse_polyaut("x + (y + x^2)^2 + (y + x^2)^3, y + x^2")
    word = jung_decompose(f)
    assert word is not NOT_AUTOMORPHISM
    assert word.recompose() == f
    assert [(fac.kind, fac.degree) for fac in word.factors] == [
        ("elementary", 3), ("affine", 1), ("elementary", 2), ("affine", 1)]
    h = parse_polyaut("y, y^2 - x")
    rep = henon_classify(h)
    assert rep.is_henon and rep.dyn_degree == 2
    rep2 = henon_classify(aut_compose(h, h))
    assert rep2.is_henon and rep2.dyn_degree == 4


def test_criterion_08_weyl_salem():
    cp = char_poly(standard_element(10))
    residual, _removed = strip_cyclotomic(cp)
    assert residual == LEHMER
    rep = salem_classify(cp)
    assert rep.kind == "Salem"
    assert abs(rep.dominant_root - 1.17628081) < 1e-6
    assert salem_classify([-1, -1, 0, 1]).kind == "Pisot"
    for n in (8, 9):
        assert spectral_radius(standard_element(n)) == 1.0
    for n in (10, 11):
        assert spectral_radius(standard_element(n)) > 1.0
    assert group_order_bfs(3) == 12
    assert group_order_bfs(4) == 120
    assert group_order_bfs(5) == 1920
    assert group_order_bfs(6) == 51840


def test_criterion_09_catalog_matrices():
    expected = functools.reduce(lambda p, q: pmul(p, q, zero=0), ACTION_16_CHARPOLY_FACTORS)
    golden = (3 + 5 ** 0.5) / 2
    for M in (PHI3_ACTION_16, PSI_ACTION_16):
        cp = charpoly_int(M)
        assert cp == expected
        dom = max(r.real for r in poly_roots(cp).roots
                  if abs(r.imag) < 1e-9)
        assert abs(dom - golden) < 1e-12
    for n in range(7, 11):
        dom_m = max(r.real for r in poly_roots(charpoly_int(bk_matrix(n))).roots
                    if abs(r.imag) < 1e-9)
        dom_p = max(r.real for r in poly_roots(chi_n(n)).roots
                    if abs(r.imag) < 1e-9)
        assert abs(dom_m - dom_p) < 1e-9
    M = [[Scalar(v) for v in row] for row in M_SIGMA]
    ident = [[Scalar(1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert mat_mul(M, M) == ident


def test_criterion_10_relations():
    prod = compose(ETA, E_INVOLUTION)
    assert compose(prod, compose(prod, prod)) == SIGMA
    prod2 = compose(GIZATULLIN_H, SIGMA)
    assert compose(prod2, compose(prod2, prod2)).is_identity()


def test_criterion_11_conjugacy_identities():
    assert _conjugacy_holds(PHI3, phi_alpha_phi3, conjugation_matrix_phi3,
                            Fraction(1), Fraction(2))
    assert _conjugacy_holds(PSI, phi_alpha_psi, conjugation_matrix_psi,
                            Fraction(1), Fraction(2))


def test_criterion_12_invariant_cubics():
    t = Fraction(2)
    for j in (1, 2, 3):
        a, b = phi_j(j, t)
        P = invariant_cubic(t, a, b)
        pulled = substitute(P, f_ab(a, b).components)
        assert divide_exact(pulled, P) is not None
        off = substitute(P, f_ab(Fraction(1, 3), Fraction(5, 7)).components)
        assert divide_exact(off, P) is None


def test_criterion_13_bedford_kim_geometry():
    rng = random.Random(13)
    for _ in range(5):
        a = Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        b = Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        f = f_ab(a, b)
        q = is_contracted_line(f, LinearForm([a, Scalar(0), Scalar(1)]))
        assert q is not NOT_CONTRACTED
        assert q == ProjPoint([Scalar(1), -a, Scalar(0)])
        assert f_ab_pstar(a, b) == ProjPoint([Scalar(1), -b, -a])
    for (n, j) in ((3, 1), (5, 2), (7, 3)):
        assert mobius_period(cos_parameter(n, j), tol=1e-9) == n


def test_criterion_14_orbit_figures():
    alpha = cmath.exp(2j * 3 ** 0.5)
    beta = cmath.exp(2j * 2 ** 0.5)
    cloud = iterate_family("f_alpha_beta", (alpha, beta),
                           (1e-4j, 1e-4j), 30000)
    assert not cloud.diverged and len(cloud.points) == 30000
    assert all(abs(x) < 0.1 for (x, _y) in cloud.points)
    ys = [abs(y) for (_x, y) in cloud.points]
    assert (max(ys) - min(ys)) / 1e-4 < 1e-9
