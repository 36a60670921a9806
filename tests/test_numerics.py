"""Floating-point layer: orbits, roots, Newton solving."""

import cmath

import pytest

import cremona.numerics as numerics
from cremona.errors import IllConditioned, NonConvergence, PoleAtSeed
from cremona.numerics import (
    OrbitCloud,
    cos_parameter,
    dominant_root,
    iterate_family,
    mobius_period,
    newton_solve_vn,
    poly_roots,
    project_cloud,
)


def test_poly_roots_oracles():
    rs = sorted(r.real for r in poly_roots([1, -3, 1]).roots)
    assert abs(rs[0] - 0.3819660112501051) < 1e-10
    assert abs(rs[1] - 2.618033988749895) < 1e-10
    assert abs(abs(dominant_root([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]))
               - 1.17628081) < 1e-6
    assert abs(dominant_root([-1, -1, 0, 1]).real - 1.32471795) < 1e-6


def test_poly_roots_residual_bound():
    rs = poly_roots([2, 0, -3, 1])
    assert len(rs.roots) == 3
    assert all(res <= rs.bound * 10 for res in rs.residuals)


def test_unit_modulus_conserves_y():
    cloud = iterate_family("f_alpha_beta", (1.0, 1.0), (0.02j, 0.003j), 100)
    ys = [abs(p[1]) for p in cloud.points]
    assert max(ys) - min(ys) < 1e-15


def test_orbit_conserves_y_modulus_generic_beta():
    alpha = cmath.exp(2j * 3 ** 0.5)
    beta = cmath.exp(2j * 2 ** 0.5)
    cloud = iterate_family("f_alpha_beta", (alpha, beta), (1e-4j, 1e-4j), 10000)
    ys = [abs(p[1]) for p in cloud.points]
    assert (max(ys) - min(ys)) / 1e-4 < 1e-9


def test_pole_at_seed():
    with pytest.raises(PoleAtSeed):
        iterate_family("f_alpha_beta", (1.0, 1.0), (-1.0, 0.5), 10)
    with pytest.raises(PoleAtSeed):
        iterate_family("mcmullen", (0.0, 0.0), (0.0, 1.0), 10)


def test_divergence_flag():
    cloud = iterate_family("mcmullen", (10.0, 10.0), (1.0, 1e13), 50)
    assert cloud.diverged


def test_projections():
    empty = OrbitCloud(points=[])
    assert project_cloud(empty, "omega1").points == []
    one = OrbitCloud(points=[(1 + 2j, 3 + 4j)])
    p1 = project_cloud(one, "omega1").points[0]
    assert p1 == (1 + 2j, 4 + 0j)
    p2 = project_cloud(one, "omega2").points[0]
    assert p2 == (1 + 0j, 3 + 4j)
    # conjugate-symmetric orbits project symmetrically under the Im flip
    sym = OrbitCloud(points=[(1 + 2j, 3 + 4j), (1 - 2j, 3 - 4j)])
    u, v = project_cloud(sym, "omega1").points[1]
    assert u == (1 - 2j) and v == -4 + 0j


def test_mobius_periods():
    for (n, j) in ((3, 1), (5, 2), (7, 3)):
        assert mobius_period(cos_parameter(n, j)) == n
    # off the special parameters there is no short period
    assert mobius_period(0.7318) not in (3, 5, 7)


def test_newton_converges_near_root():
    a, b, res = newton_solve_vn(7, (-0.08 + 0.01j, 0.42 - 0.01j))
    assert res < 1e-10
    assert abs(a - (-0.0837358229)) < 1e-6
    assert abs(b - 0.4157606867) < 1e-6


def test_newton_far_seed_fails():
    with pytest.raises(NonConvergence):
        newton_solve_vn(7, (1e6, 1e6))


def test_newton_evaluates_the_residual_five_times_per_step(monkeypatch):
    """One residual at (a, b) and one at each of the four difference points."""
    calls = []
    residual = numerics._vn_vector_residual

    def counted(a, b, n):
        calls.append((a, b))
        return residual(a, b, n)

    monkeypatch.setattr(numerics, "_vn_vector_residual", counted)
    newton_solve_vn(7, (-0.08 + 0.01j, 0.42 - 0.01j))
    assert len(calls) % 5 == 1  # the last step stops at its first residual
    calls.clear()
    monkeypatch.setattr(numerics, "NEWTON_STEPS", 3)
    with pytest.raises(NonConvergence):
        newton_solve_vn(7, (-0.08 + 0.01j, 0.42 - 0.01j))
    assert len(calls) == 15
