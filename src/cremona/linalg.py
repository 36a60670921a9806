"""Exact dense linear algebra over Q and Q(sqrt(d)): one fraction-free
elimination, `_int_rref`, behind `nullspace` and through it `mat_inverse`;
Berkowitz's `charpoly_int` on integer matrices; and `mat_mul`."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, IncompatibleField, InexactDivision
from .scalars import Scalar

_F0 = Fraction(0)
_F1 = Fraction(1)


def mat_mul(A, B):
    """Product of two matrices given as row lists of ints, Fractions or
    Scalars; each entry is the sum of the products of a row and a column."""
    m = len(B)
    p = len(B[0]) if B else 0
    if not (A and p) or any(len(row) != m for row in A) or any(len(row) != p for row in B):
        raise DimensionMismatch(f"{len(A)}x{len(A[0]) if A else 0} times {m}x{p}")
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


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
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch(f"nullspace of a ragged matrix: a row's length is not {ncols}")
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
    """Exact inverse of a square matrix of ints, Fractions or Scalars over Q
    or one Q(sqrt(d)), as Scalars; None when the matrix is singular.

    The nullspace of [A | -I] holds the pairs (x, A x): A is invertible
    exactly when its basis vector j ends in e_j, and then begins with column
    j of the inverse. Each row is scaled to ints, or to int pairs over
    Q(sqrt(d)), by the lcm of its denominators.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatch(f"inverse of a non-square {n}-row matrix")
    S = [[Scalar.coerce(v) for v in row] for row in A]
    fields = {v.d for row in S for v in row} - {0}
    if len(fields) > 1:
        raise IncompatibleField(f"matrix entries over sqrt(d) for d in {sorted(fields)}")
    d = max(fields, default=0)
    rows = []
    for i, row in enumerate(S):
        D = math.lcm(*(u.denominator for v in row for u in (v.a, v.b)))
        pairs = [(int(v.a * D), int(v.b * D)) for v in row]
        pairs += [(-D * (i == j), 0) for j in range(n)]
        rows.append(pairs if d else [a for a, _ in pairs])
    basis = nullspace(rows, 2 * n, d)
    if [v[n:] for v in basis] != [[int(i == j) for j in range(n)] for i in range(n)]:
        return None
    return [[Scalar.coerce(v) for v in row] for row in list(zip(*basis))[:n]]


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
