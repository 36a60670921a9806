"""Floating-point layer: complex orbit iteration for the parameter families,
polynomial root finding with refinement guarantees, and a damped Newton
solver for the degree-n orbit-realization residual.

Everything here is double precision; the exact layers never call into it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .errors import IllConditioned, NonConvergence, PoleAtSeed
from .unipoly import peval
from .weyl import poly_roots_numeric

ORBIT_CAP = 10 ** 6
DIVERGENCE_BOUND = 1e12
POLE_TOL = 1e-12
ROOT_RESIDUAL_BOUND = 1e-10
NEWTON_STEPS = 200
NEWTON_DAMPING = 0.5
NEWTON_FD_STEP = 1e-7
NEWTON_TOL = 1e-10


@dataclass
class OrbitCloud:
    points: list  # list of (complex, complex) pairs
    projection: str = "raw"  # raw | omega1 | omega2
    metadata: dict = field(default_factory=dict)
    diverged: bool = False


@dataclass
class RootSet:
    roots: list
    residuals: list
    bound: float


# -- the three affine families --------------------------------------------

def _step_f_alpha_beta(params):
    alpha, beta = params

    def den(p):
        return p[0] + 1.0

    def step(p):
        x, y = p
        return ((alpha * x + y) / (x + 1.0), beta * y)

    return step, den


def _step_bk_fab(params):
    a, b = params

    def den(p):
        return b + p[0]

    def step(p):
        u, v = p
        return (v, (a + v) / (b + u))

    return step, den


def _step_mcmullen(params):
    a, b = params

    def den(p):
        return p[0]

    def step(p):
        x, y = p
        return (a + y, b + y / x)

    return step, den


_FAMILIES = {
    "f_alpha_beta": _step_f_alpha_beta,
    "bk_fab": _step_bk_fab,
    "mcmullen": _step_mcmullen,
}


def iterate_family(family, params, seed, n):
    """Orbit of the seed in the affine chart; stops early with the diverged
    flag when a coordinate passes 1e12 or the next denominator is within
    1e-12 of zero."""
    if family not in _FAMILIES:
        raise KeyError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    if n < 0:
        raise ValueError(f"iteration count must be at least 0, got {n}")
    if n > ORBIT_CAP:
        raise ValueError(f"iteration count exceeds cap {ORBIT_CAP}")
    step, den = _FAMILIES[family](tuple(complex(p) for p in params))
    p = (complex(seed[0]), complex(seed[1]))
    if abs(den(p)) < POLE_TOL:
        raise PoleAtSeed(f"seed denominator {den(p)!r} below tolerance")
    points = []
    diverged = False
    for _ in range(n):
        p = step(p)
        points.append(p)
        if max(abs(p[0]), abs(p[1])) > DIVERGENCE_BOUND or abs(den(p)) < POLE_TOL:
            diverged = True
            break
    return OrbitCloud(
        points=points,
        projection="raw",
        metadata={"family": family, "params": tuple(params),
                  "seed": tuple(seed), "n": n},
        diverged=diverged,
    )


def project_cloud(cloud, tag="omega1"):
    """Project a raw orbit: omega1 keeps (p1, Im p2), omega2 keeps
    (Re p1, p2)."""
    if tag == "omega1":
        pts = [(x, complex(y.imag)) for (x, y) in cloud.points]
    elif tag == "omega2":
        pts = [(complex(x.real), y) for (x, y) in cloud.points]
    else:
        raise ValueError("projection tag must be omega1 or omega2")
    return OrbitCloud(points=pts, projection=tag,
                      metadata=dict(cloud.metadata), diverged=cloud.diverged)


# -- polynomial roots -------------------------------------------------------

def poly_roots(coeffs):
    """All complex roots (companion matrix + Newton polish) with certified
    residuals; raises IllConditioned when a residual misses the bound."""
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise ValueError("need degree >= 1")
    roots = poly_roots_numeric(cs)
    scale = max(abs(c) for c in cs)
    residuals = []
    bound = ROOT_RESIDUAL_BOUND * scale
    for r in roots:
        res = abs(peval(cs, r, zero=0j))
        # the residual scales with the root magnitude for large roots
        tol = bound * max(1.0, abs(r)) ** (len(cs) - 1)
        if res > tol:
            raise IllConditioned(f"residual {res} at root {r} exceeds {tol}")
        residuals.append(res)
    return RootSet(roots=roots, residuals=residuals, bound=bound)


def dominant_root(coeffs):
    return max(poly_roots(coeffs).roots, key=abs)


# -- Newton solver for the realization residual ----------------------------

def _vn_vector_residual(a, b, n):
    """Chart form of the orbit condition: f^n(q) = (1 : -b : -a)."""
    from .catalog import vn_residual

    points, _ = vn_residual(complex(a), complex(b), n)
    X, Y, Z = points[-1]
    if abs(X) < POLE_TOL:
        raise ZeroDivisionError("orbit endpoint leaves the affine chart")
    return (Y / X + b, Z / X + a)


def newton_solve_vn(n, guess):
    """Damped Newton iteration on (a, b) for the degree-n realization
    condition; Jacobian by central finite differences, one residual at
    each of the four points (a +- h, b) and (a, b +- h)."""
    a, b = complex(guess[0]), complex(guess[1])
    h = NEWTON_FD_STEP
    for _ in range(NEWTON_STEPS):
        try:
            r0, r1 = _vn_vector_residual(a, b, n)
        except Exception as exc:  # orbit broke down at this parameter
            raise NonConvergence(f"residual undefined at ({a}, {b}): {exc}")
        norm = max(abs(r0), abs(r1))
        if norm < NEWTON_TOL:
            return a, b, norm
        try:
            pa, ma = _vn_vector_residual(a + h, b, n), _vn_vector_residual(a - h, b, n)
            pb, mb = _vn_vector_residual(a, b + h, n), _vn_vector_residual(a, b - h, n)
        except Exception as exc:
            raise NonConvergence(f"jacobian undefined at ({a}, {b}): {exc}")
        j00 = (pa[0] - ma[0]) / (2 * h)
        j10 = (pa[1] - ma[1]) / (2 * h)
        j01 = (pb[0] - mb[0]) / (2 * h)
        j11 = (pb[1] - mb[1]) / (2 * h)
        det = j00 * j11 - j01 * j10
        if abs(det) < 1e-300:
            raise NonConvergence("singular jacobian")
        da = (r0 * j11 - r1 * j01) / det
        db = (j00 * r1 - j10 * r0) / det
        a -= NEWTON_DAMPING * da
        b -= NEWTON_DAMPING * db
    raise NonConvergence(f"no root within {NEWTON_STEPS} damped steps")


def mobius_period(c, w0=0.237 + 0.411j, max_period=64, tol=1e-9):
    """Smallest n with g^n(w0) = w0 for g(w) = c - 1/w, or 0 if none found."""
    w = complex(w0)
    for k in range(1, max_period + 1):
        if abs(w) < POLE_TOL:
            return 0
        w = c - 1.0 / w
        if abs(w - w0) < tol:
            return k
    return 0


def cos_parameter(n, j):
    """The parameter c = 2 cos(j pi / n) making g(w) = c - 1/w periodic."""
    return 2.0 * cmath.cos(j * cmath.pi / n).real
