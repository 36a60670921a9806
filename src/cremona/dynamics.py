"""Degree growth of iterated plane maps and dynamical-degree estimates.

Iterate degrees are exact: each composition divides out the common factor,
so the reported degrees belong to the reduced iterates, not to the naive
degree products.  Growth classification at a finite horizon is a heuristic
fit (Bounded is certified exactly via map equality; the polynomial and
exponential regimes are least-squares fits with a residual margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    NOT_CONTRACTED,
    NOT_FULLY_SPLIT,
    DegreeMismatch,
    FieldObstruction,
    ResourceLimit,
)
from .poly import factor_linear_cubic, jacobian_det
from .ratmap import compose, is_contracted_line

DIGIT_BUDGET = 10 ** 6
DEFAULT_HORIZON_QUADRATIC = 12
DEFAULT_HORIZON_CUBIC = 8
RESIDUAL_MARGIN = 0.15


def default_horizon(f):
    return DEFAULT_HORIZON_QUADRATIC if f.degree <= 2 else DEFAULT_HORIZON_CUBIC


@dataclass
class DegreeSequence:
    degrees: list
    horizon: int
    period: int = 0  # nonzero when some iterate exactly repeats an earlier one


@dataclass
class GrowthClass:
    label: str
    lambda_estimate: float
    evidence: dict = field(default_factory=dict)


@dataclass
class StabilityReport:
    horizon: int
    collisions: list = field(default_factory=list)  # (target, k, orbit point)


def degree_sequence(f, N=None):
    """Degrees of the reduced iterates f, f^2, ..., f^N.

    Also detects exact periodicity (f^j == f^k projectively) on the way,
    which growth_classify uses as its boundedness certificate.  Raises
    ResourceLimit when coefficients outgrow the digit budget.
    """
    if N is None:
        N = default_horizon(f)
    if N < 1:
        raise ValueError("horizon must be at least 1")
    degs = [f.degree]
    seen = [f]
    period = 0
    cur = f
    for k in range(2, N + 1):
        if cur.coefficient_digits() > DIGIT_BUDGET:
            raise ResourceLimit(
                f"iterate coefficients passed {DIGIT_BUDGET} digits at step {k}"
            )
        cur = compose(f, cur)
        degs.append(cur.degree)
        if not period:
            for j, old in enumerate(seen):
                if cur.degree == old.degree and cur == old:
                    period = k - (j + 1)
                    break
            seen.append(cur)
    if not all(degs[i + 1] <= degs[i] * degs[0] for i in range(len(degs) - 1)):
        raise DegreeMismatch(f"degree sequence {degs} is not submultiplicative")
    return DegreeSequence(degrees=degs, horizon=N, period=period)


def lambda_estimate(seq):
    """Geometric mean of d_N^(1/N) and the last ratio d_N/d_(N-1)."""
    degs = seq.degrees if isinstance(seq, DegreeSequence) else list(seq)
    if len(degs) < 2:
        raise ValueError("need at least two iterate degrees")
    n = len(degs)
    d_n, d_prev = degs[-1], degs[-2]
    return math.sqrt(d_n ** (1.0 / n) * d_n / d_prev)


def _fit_residual(xs, ys):
    """Slope and relative residual of the least-squares line through (xs, ys)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None, float("inf")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    icept = my - slope * mx
    res = math.sqrt(sum((y - (slope * x + icept)) ** 2 for x, y in zip(xs, ys)) / n)
    scale = max(abs(y) for y in ys) or 1.0
    return slope, res / scale


def growth_classify(seq):
    """Bounded / Linear / Quadratic / Exponential / Undetermined.

    seq may be a DegreeSequence or a plain list of degrees.  Boundedness is
    certified by exact iterate repetition, recorded on the sequence as its
    period; the other labels come from least-squares fits of d_k against
    k, k^2 and of log d_k against k, accepted below relative residual 0.15,
    ties giving Undetermined.
    """
    if isinstance(seq, DegreeSequence):
        degs = seq.degrees
        period = seq.period
    else:
        degs = list(seq)
        period = 0
    if period or (max(degs) == 1):
        return GrowthClass("Bounded", 1.0, {"period": period})
    ks = list(range(1, len(degs) + 1))
    ys = [float(d) for d in degs]
    # a sequence whose maximum is reached early and never exceeded is bounded
    slope0, _ = _fit_residual(ks, ys)
    if slope0 is not None and slope0 < 0.05 and max(degs) == max(degs[: (len(degs) + 1) // 2]):
        return GrowthClass("Bounded", 1.0, {"period": period})
    fits = []
    slope, r_lin = _fit_residual(ks, ys)
    if slope is not None and slope > 0:
        fits.append((r_lin, "Linear"))
    slope, r_quad = _fit_residual([k * k for k in ks], ys)
    if slope is not None and slope > 0:
        fits.append((r_quad, "Quadratic"))
    slope, r_exp = _fit_residual(ks, [math.log(d) for d in degs])
    if slope is not None and slope > math.log(1.05):
        fits.append((r_exp, "Exponential"))
    fits.sort()
    evidence = {
        "residual_linear": r_lin,
        "residual_quadratic": r_quad,
        "residual_exponential": r_exp,
    }
    lam = lambda_estimate(degs) if len(degs) >= 2 else float(degs[0])
    if not fits or fits[0][0] >= RESIDUAL_MARGIN:
        return GrowthClass("Undetermined", lam, evidence)
    label = fits[0][1]
    if label != "Exponential":
        lam = 1.0
    return GrowthClass(label, lam, evidence)


def contraction_targets(f):
    """Images of the contracted det-jacobian lines of f.

    Raises FieldObstruction when the jacobian determinant does not split
    into lines over the working field.
    """
    J = jacobian_det(f.components)
    if J.is_zero():
        return []
    factors = factor_linear_cubic(J)
    if factors is NOT_FULLY_SPLIT:
        raise FieldObstruction("det-jacobian does not split over the working field")
    out = []
    for lf, _m in factors:
        t = is_contracted_line(f, lf)
        if t is not NOT_CONTRACTED:
            out.append(t)
    return out


def stability_probe(f, N=None):
    """Bounded-horizon algebraic-stability check.

    Pushes every contraction target p of f through the iteration and tests
    f^k(p) for indeterminacy (all components vanish), k = 0..N.  Empty
    collisions means "no obstruction up to horizon N", not a stability
    proof.
    """
    if N is None:
        N = default_horizon(f)
    collisions = []
    for p0 in contraction_targets(f):
        p = p0
        for k in range(N + 1):
            q = f.apply(p)
            if q is None:
                collisions.append((p0, k, p))
                break
            p = q
    return StabilityReport(horizon=N, collisions=collisions)
