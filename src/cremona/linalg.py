"""Exact dense linear algebra over Scalar and over the integers."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, InexactDivision
from .scalars import Scalar

SZERO = Scalar(0)
SONE = Scalar(1)
_F0 = Fraction(0)
_F1 = Fraction(1)


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


def nullspace(rows, ncols, d=0):
    """Basis of the right nullspace of an integer matrix, or of a matrix over
    Q(sqrt(d)) with entries (a, b) standing for a + b*sqrt(d), a and b ints.

    The basis is the one rref gives: for each free column fc, the vector
    with 1 at fc, 0 at the other free columns and -R[r][fc] / R[r][pc] at
    the pivot column pc of each row r of the reduced matrix R.  The matrix
    is reduced on ints by `_int_rref`, and only the basis entries become
    Fractions; over Q(sqrt(d)) they become Scalars.

    Over Q(sqrt(d)) the system is solved in its real form on the unknowns
    v = v0 + v1*sqrt(d): each row gives an int row for the rational and one
    for the sqrt(d) part, with the columns interleaved as (v0[c], v1[c]).
    Real column 2c + 1 is sqrt(d) times real column 2c, so the free real
    columns are 2c and 2c + 1 for each free column c of the matrix, and the
    basis vector of 2c is the rref basis vector of c.
    """
    if not d:
        R, pivots = _int_rref(rows, ncols)
        return _basis(R, pivots, ncols)
    real = []
    for row in rows:
        real.append([v for a, b in row for v in (a, d * b)])
        real.append([v for a, b in row for v in (b, a)])
    R, pivots = _int_rref(real, 2 * ncols)
    return [[Scalar(v[2 * c], v[2 * c + 1], d) for c in range(ncols)]
            for v in _basis(R, pivots, 2 * ncols, step=2)]


def _basis(R, pivots, ncols, step=1):
    """Fraction nullspace vectors of the free columns fc (with fc % step
    == 0) of the reduced int rows R with the given pivot columns."""
    basis = []
    pivot_set = set(pivots)
    for fc in range(0, ncols, step):
        if fc in pivot_set:
            continue
        v = [_F0] * ncols
        v[fc] = _F1
        for row, pc in zip(R, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def _int_rref(rows, ncols):
    """Fraction-free Gauss-Jordan on int rows: (R, pivots) where row r of R
    is a nonzero int multiple of row r of the rref.

    Each elimination step p * row - f * pivot_row is divided by the gcd of
    its entries, and the pivot of each column is the least in absolute value
    of its rows, which keeps the entries small; the rref, and so the
    result, does not depend on the choice.
    """
    A = [list(row) for row in rows if any(row)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = min((i for i in range(r, len(A)) if A[i][c]),
                key=lambda i: abs(A[i][c]), default=None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        P = A[r]
        p = P[c]
        kept = []
        for i, row in enumerate(A):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                row = [a * u - b * v for u, v in zip(row, P)]
                g = math.gcd(*row)
                if not g:  # the row reduced to zero
                    continue
                if g > 1:
                    row = [u // g for u in row]
            kept.append(row)
        A = kept
        pivots.append(c)
        if len(A) == r + 1:
            break
    return A[:len(pivots)], pivots


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
    """Characteristic polynomial det(tI - M) of a square rational matrix
    whose characteristic polynomial is integral.

    Returns integer coefficients, constant term first, leading coefficient 1;
    raises DimensionMismatch when M is not square and InexactDivision when a
    coefficient is not an integer. M is scaled by the lcm D of its
    denominators, and Berkowitz's division-free algorithm (Inf. Proc. Lett.
    18, 1984) runs on the integer matrix DM, whose coefficient c_{n-k} is
    D^k times that of M. Bordering the leading r x r block A_r by the column
    C, the row R and the corner a, the characteristic polynomial of the
    bordered block is the Toeplitz product of q = [1, -a, -RC, -RA_rC, ...,
    -RA_r^{r-1}C] with that of A_r. The matrix-vector products behind q are
    all the work, about n^4/4 multiplications, and no division runs
    before the final one by D^k.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise DimensionMismatch(f"characteristic polynomial of a non-square {n}-row matrix")
    # an int already has a numerator and a denominator; Fraction() would only cost time
    Q = [[v if type(v) is int else Fraction(v) for v in row] for row in M]
    D = math.lcm(*(v.denominator for row in Q for v in row))
    A = [[v.numerator * (D // v.denominator) for v in row] for row in Q]
    coeffs = [1]  # c_r, c_{r-1}, ..., c_0 of the leading r x r block of DM
    for r, R in enumerate(A):
        block = A[:r]
        v = [row[r] for row in block]
        q = [1, -R[r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, row, v)) for row in block]
            q.append(-sum(map(mul, R, v)))
        q.reverse()
        coeffs = [sum(map(mul, q[r + 1 - i:], coeffs)) for i in range(r + 2)]
    out = []
    for k, c in enumerate(coeffs):
        c, rem = divmod(c, D ** k)
        if rem:
            raise InexactDivision("characteristic polynomial must be integral")
        out.append(c)
    return out[::-1]  # constant term first
