"""Degree growth of iterated plane maps and dynamical degrees.

Iterate degrees are exact: each composition divides out the common factor,
so the reported degrees belong to the reduced iterates, not to the naive
degree products.  Each step is `ratmap._next_iterate`, f^(k+1) = f^k o f.
Over Q, when f is dominant with coprime components and det Jac(f) splits
into lines over Q, the common factor of f^k(f) is a product of those lines
(the curves it contains are contracted by f), so it is peeled off line by
line, with no gcd, from a substitution on Kronecker-packed ints (see
`poly`).  Elsewhere the step is compose(f, f^k).  Growth classification at
a finite horizon is exact too:
Bounded is certified by map equality, otherwise the class and the dynamical
degree come from the shortest linear recurrence of the degrees, accepted
only when the window confirms it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    NOT_CONTRACTED,
    NOT_FULLY_SPLIT,
    DegreeMismatch,
    FieldObstruction,
    ResourceLimit,
)
from .poly import _jacobian_lines, factor_linear_cubic, jacobian_det
from .ratmap import _next_iterate, is_contracted_line
from .weyl import salem_classify

DIGIT_BUDGET = 10 ** 6
DEFAULT_HORIZON_QUADRATIC = 12
DEFAULT_HORIZON_CUBIC = 8
_POLYNOMIAL_GROWTH = {1: "Bounded", 2: "Linear", 3: "Quadratic"}


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
    seen = {f: 1}  # iterate -> its first step
    period = 0
    cur = f
    lines = _jacobian_lines(f.components) if N > 1 else None
    for k in range(2, N + 1):
        if cur.coefficient_digits() > DIGIT_BUDGET:
            raise ResourceLimit(
                f"iterate coefficients passed {DIGIT_BUDGET} digits at step {k}"
            )
        cur = _next_iterate(f, cur, lines)
        degs.append(cur.degree)
        if not period:
            period = k - seen.setdefault(cur, k)
    if not all(degs[i + 1] <= degs[i] * degs[0] for i in range(len(degs) - 1)):
        raise DegreeMismatch(f"degree sequence {degs} is not submultiplicative")
    return DegreeSequence(degrees=degs, horizon=N, period=period)


def _degrees(seq):
    """The degrees of a DegreeSequence or of a plain list; ValueError on a
    degree below 1."""
    degs = seq.degrees if isinstance(seq, DegreeSequence) else list(seq)
    if min(degs, default=1) < 1:
        raise ValueError(f"iterate degrees must be at least 1: {degs}")
    return degs


def lambda_estimate(seq):
    """Geometric mean of d_N^(1/N) and the last ratio d_N/d_(N-1)."""
    degs = _degrees(seq)
    if len(degs) < 2:
        raise ValueError("need at least two iterate degrees")
    n = len(degs)
    d_n, d_prev = degs[-1], degs[-2]
    return math.sqrt(d_n ** (1.0 / n) * d_n / d_prev)


def _recurrence(degs):
    """Characteristic polynomial chi of the shortest linear recurrence of degs,
    by Berlekamp-Massey over Fractions: ints, constant term first, monic.
    None when chi is not integral or the window has fewer than 2L + 2 terms
    for its order L: 2L terms fix the recurrence and two more confirm it.
    """
    s = [Fraction(d) for d in degs]
    c, b = [Fraction(1)], [Fraction(1)]  # connection polynomials, constant first
    order, shift, b_delta = 0, 1, Fraction(1)
    for n in range(len(s)):
        delta = sum(ci * s[n - i] for i, ci in enumerate(c[:order + 1]))
        if delta:
            prev, c = c, c + [Fraction(0)] * (len(b) + shift - len(c))
            for i, bi in enumerate(b):
                c[i + shift] -= delta / b_delta * bi
            if 2 * order <= n:
                order, b, b_delta, shift = n + 1 - order, prev, delta, 0
        shift += 1
    chi = (c + [Fraction(0)] * order)[order::-1]  # x^L C(1/x)
    if len(s) < 2 * order + 2 or any(v.denominator != 1 for v in chi):
        return None
    return [int(v) for v in chi]


def growth_classify(seq):
    """Bounded / Linear / Quadratic / Exponential / Undetermined.

    seq may be a DegreeSequence or a plain list of degrees.  An exact period
    of the iterates certifies Bounded.  Otherwise chi = _recurrence(degrees),
    with the x^t of a transient stripped, goes to salem_classify (Diller &
    Favre, Amer. J. Math. 123, 2001): a Pisot or Salem residual is
    Exponential with lambda its dominant root, and an all-cyclotomic chi is
    Bounded, Linear or Quadratic as the highest multiplicity of a cyclotomic
    factor is 1, 2 or 3.  The rest is Undetermined, with lambda_estimate.
    """
    degs = _degrees(seq)
    period = seq.period if isinstance(seq, DegreeSequence) else 0
    if period or (max(degs) == 1):
        return GrowthClass("Bounded", 1.0, {"period": period})
    lam = lambda_estimate(degs) if len(degs) >= 2 else float(degs[0])
    chi = _recurrence(degs)
    if chi is None:
        return GrowthClass("Undetermined", lam, {})
    rep = salem_classify(chi[next(i for i, v in enumerate(chi) if v):])
    evidence = {"recurrence": chi, "lambda_class": rep.kind}
    if rep.kind in ("Pisot", "Salem"):
        return GrowthClass("Exponential", rep.dominant_root, evidence)
    if rep.kind == "Cyclotomic":
        label = _POLYNOMIAL_GROWTH.get(max(Counter(rep.removed_cyclotomic).values()))
        if label:
            return GrowthClass(label, 1.0, evidence)
    return GrowthClass("Undetermined", lam, evidence)


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
    f^k(p) for indeterminacy (all components vanish), k = 0..N; N = 0
    checks the targets themselves.  Empty collisions means "no obstruction
    up to horizon N", not a stability proof.
    """
    if N is None:
        N = default_horizon(f)
    if N < 0:
        raise ValueError(f"horizon must be at least 0, got {N}")
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
