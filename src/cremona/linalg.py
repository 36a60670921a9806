"""Exact dense linear algebra over Scalar and over the integers."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, InexactDivision
from .scalars import Scalar

SZERO = Scalar(0)
SONE = Scalar(1)


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    if len(A[0]) != m:
        raise DimensionMismatch(f"{n}x{len(A[0])} times {m}x{p}")
    return [
        [sum((A[i][k] * B[k][j] for k in range(m)), start=_zero_like(A, B)) for j in range(p)]
        for i in range(n)
    ]


def _zero_like(A, B):
    probe = A[0][0]
    if isinstance(probe, Scalar):
        return SZERO
    return probe - probe


def rref(rows, ncols=None):
    """Reduced row echelon form over a field; returns (rref_rows, pivots).

    A matrix of rational Scalars (b = 0 throughout) is reduced on their
    Fractions and mapped back to Scalars, which gives the same rows several
    times faster; Q(sqrt d) matrices and plain numbers reduce as they are.
    """
    A = [list(r) for r in rows]
    if A and all(isinstance(v, Scalar) and not v.b for row in A for v in row):
        R, pivots = _rref([[v.a for v in row] for row in A], ncols)
        return [[Scalar(v) for v in row] for row in R], pivots
    return _rref(A, ncols)


def _rref(A, ncols):
    """rref on the row lists A, in place; returns (A, pivots)."""
    if not A:
        return A, []
    if ncols is None:
        ncols = len(A[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(A)):
            if A[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = _inv(A[r][c])
        A[r] = [v * inv if v else v for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b if b else a for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


def _inv(x):
    if isinstance(x, Scalar):
        return x.inverse()
    return 1 / x


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, as coefficient lists."""
    R, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [SZERO] * ncols
        v[fc] = SONE
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def mat_inverse(A):
    """Exact inverse of a square Scalar matrix, or None if singular."""
    n = len(A)
    aug = [list(A[i]) + [SONE if i == j else SZERO for j in range(n)] for i in range(n)]
    R, pivots = rref(aug, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in R]


def det(A):
    """Exact determinant by fraction-free-ish elimination over the field."""
    n = len(A)
    M = [list(r) for r in A]
    d = SONE if isinstance(M[0][0], Scalar) else 1
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if M[i][c]:
                pivot = i
                break
        if pivot is None:
            return SZERO if isinstance(d, Scalar) else 0
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        d = d * M[c][c]
        inv = _inv(M[c][c])
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return d * sign


def charpoly_int(M):
    """Characteristic polynomial det(tI - M) of a rational matrix whose
    characteristic polynomial is integral.

    Returns integer coefficients, constant term first, leading coefficient 1,
    and raises InexactDivision when a coefficient is not an integer. M is
    scaled by the lcm D of its denominators and Faddeev-LeVerrier runs on
    the integer matrix DM, whose every intermediate is an integer; the
    coefficient c_{n-k} of DM is D^k times that of M.
    """
    n = len(M)
    Q = [[Fraction(v) for v in row] for row in M]
    D = math.lcm(*(v.denominator for row in Q for v in row))
    A = [[v.numerator * (D // v.denominator) for v in row] for row in Q]
    coeffs = [1]  # c_n, c_{n-1}, ..., c_0 of DM
    Mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*Mk))
        AM = [[sum(map(mul, row, col)) for col in cols] for row in A]
        ck, rem = divmod(-sum(AM[i][i] for i in range(n)), k)
        if rem:
            raise InexactDivision(f"trace not divisible by {k} in Faddeev-LeVerrier")
        coeffs.append(ck)
        for i in range(n):
            AM[i][i] += ck
        Mk = AM
    out = []
    for k, c in enumerate(coeffs):
        q, rem = divmod(c, D ** k)
        if rem:
            raise InexactDivision("characteristic polynomial must be integral")
        out.append(q)
    return out[::-1]  # constant term first
