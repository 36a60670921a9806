"""Exact dense linear algebra over Scalar and over the integers."""

from __future__ import annotations

from fractions import Fraction

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


def mat_vec(A, v):
    return [sum((A[i][k] * v[k] for k in range(len(v))), start=_zero_like(A, [v])) for i in range(len(A))]


def identity(n, one=SONE, zero=SZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(rows, ncols=None):
    """Reduced row echelon form over a field; returns (rref_rows, pivots)."""
    A = [list(r) for r in rows]
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
        A[r] = [v * inv for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
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


def solve(rows, rhs):
    """One solution of A x = b over a field, or None if inconsistent."""
    n = len(rows)
    ncols = len(rows[0])
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    R, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [SZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][ncols]
    return x


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
    """Characteristic polynomial det(tI - M) of an integer matrix.

    Faddeev-LeVerrier over exact rationals; returns integer coefficients,
    constant term first, leading coefficient 1.
    """
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # c_n = 1, then c_{n-1}, ...
    Mk = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        Mk[i][i] = Fraction(1)
    AM = None
    for k in range(1, n + 1):
        AM = [[sum(A[i][l] * Mk[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(AM[i][i] for i in range(n))
        ck = -tr / k
        coeffs.append(ck)
        Mk = [[AM[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    # coeffs holds c_n .. c_0 with p(t) = sum c_k t^k
    out = list(reversed(coeffs))
    ints = []
    for c in out:
        if c.denominator != 1:
            raise InexactDivision("characteristic polynomial must be integral")
        ints.append(int(c))
    return ints  # constant term first


def mat_pow(A, k):
    n = len(A)
    R = identity(n, one=1, zero=0) if not isinstance(A[0][0], Scalar) else identity(n)
    base = [list(r) for r in A]
    while k:
        if k & 1:
            R = mat_mul(R, base)
        base = mat_mul(base, base)
        k >>= 1
    return R
