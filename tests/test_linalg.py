"""Exact linear algebra: checks that raise typed errors, and the integer
kernels against independent references: sympy's charpoly, and a reduced row
echelon form carried out on field elements (Fractions, or Scalars of
Q(sqrt d)) for the nullspace and the inverse."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from cremona.errors import DimensionMismatch, IncompatibleField, InexactDivision
from cremona.linalg import charpoly_int, mat_inverse, mat_mul, nullspace
from cremona.scalars import Scalar


def test_mat_mul_shape_mismatch_is_a_typed_error():
    with pytest.raises(DimensionMismatch):
        mat_mul([[1, 2]], [[1, 2]])


@pytest.mark.parametrize("A, B", [
    ([[1, 2], [3]], [[1], [2]]),    # ragged left operand
    ([[1, 2]], [[1], [2, 3]]),      # ragged right operand
    ([], [[1]]),
    ([[1]], []),
    ([[1]], [[]]),
])
def test_mat_mul_rejects_ragged_or_empty_operands(A, B):
    with pytest.raises(DimensionMismatch):
        mat_mul(A, B)


def test_mat_mul_keeps_the_entry_type():
    assert mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert type(mat_mul([[Fraction(1, 2)]], [[2]])[0][0]) is Fraction
    w = Scalar(0, 1, -3)
    [[v]] = mat_mul([[w, 1]], [[w], [Scalar(3)]])
    assert v == 0 and type(v) is Scalar


def test_charpoly_int_rejects_non_integral_polynomial():
    assert charpoly_int([[2, 1], [1, 1]]) == [1, -3, 1]
    with pytest.raises(InexactDivision):
        charpoly_int([[Fraction(1, 2)]])


# -- charpoly_int against sympy ---------------------------------------------

def _sympy_charpoly(M):
    """det(tI - M) by sympy, as Fractions, constant term first."""
    S = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in map(Fraction, row)]
                      for row in M])
    return [Fraction(int(c.p), int(c.q)) for c in reversed(S.charpoly().all_coeffs())]


@st.composite
def int_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.integers(min_value=-6, max_value=6)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def integral_rational_matrices(draw):
    """P^-1 A P for integer A and a diagonal P of small positive integers:
    rational entries, integral characteristic polynomial."""
    A = draw(int_matrices(max_n=6))
    p = draw(st.lists(st.integers(min_value=1, max_value=6),
                      min_size=len(A), max_size=len(A)))
    return [[Fraction(a * p[j], p[i]) for j, a in enumerate(row)] for i, row in enumerate(A)]


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_charpoly_int_matches_sympy_on_integer_matrices(M):
    out = charpoly_int(M)
    assert all(type(c) is int for c in out)
    assert out == _sympy_charpoly(M)


@settings(max_examples=40, deadline=None)
@given(integral_rational_matrices())
def test_charpoly_int_matches_sympy_on_rational_matrices_with_integral_polynomial(M):
    out = charpoly_int(M)
    assert all(type(c) is int for c in out)
    assert out == _sympy_charpoly(M)


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_charpoly_int_raises_exactly_when_the_polynomial_is_not_integral(M):
    want = _sympy_charpoly(M)
    if all(c.denominator == 1 for c in want):
        assert charpoly_int(M) == want
    else:
        with pytest.raises(InexactDivision):
            charpoly_int(M)


def test_charpoly_int_rational_matrix_with_integral_polynomial():
    M = [[Fraction(1, 2), 1], [Fraction(-3, 4), Fraction(1, 2)]]
    assert charpoly_int(M) == [1, -1, 1]
    assert charpoly_int([]) == [1]


@pytest.mark.parametrize("M", [
    [[1, 2, 3], [4, 5, 6]],  # zip would truncate each row to 2 entries
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2, 3]],
    [[]],
    [[1, 2], [3]],
    [[1], [2, 3]],
])
def test_charpoly_int_rejects_a_non_square_or_ragged_matrix(M):
    with pytest.raises(DimensionMismatch):
        charpoly_int(M)


# -- the reference: rref on field elements ----------------------------------

def _rref(A, ncols):
    """Reduced row echelon form of the row lists A over the field of their
    entries (Fractions or Scalars), in place; returns (A, pivots)."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = 1 / A[r][c]
        A[r] = [v * inv for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


# -- nullspace: the integer Gauss-Jordan against rref on the field -----------

def _rref_nullspace(M, ncols):
    """The rref basis of the nullspace, reduced by `_rref` on field elements."""
    R, pivots = _rref([list(r) for r in M], ncols)
    zero, one = M[0][0] * 0, M[0][0] * 0 + 1  # in the field of the entries
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


@st.composite
def low_rank(draw, entry, zero):
    """An m x n product of an m x k and a k x n matrix (so nullity >= n - k),
    with some of its rows set to zero: m may exceed n, and any nullity from
    0 to n occurs."""
    m = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=0, max_value=n))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m))
    return [[zero if i in zero_rows else
             sum((left[i][t] * right[t][j] for t in range(k)), zero)
             for j in range(n)] for i in range(m)], n


small_ints = st.integers(min_value=-5, max_value=5)
INT_CASES = [
    ([[1, 0], [0, 1], [0, 0]], 2),                 # nullity 0, a zero row, m > n
    ([[1, 2, 3], [2, 4, 6]], 3),                   # nullity 2
    ([[0, 0, 0]], 3),                              # only a zero row: nullity 3
    ([[2, -4, 6, 0], [1, 1, 1, 1], [3, -3, 7, 1]], 4),  # nullity 2
    ([[1, 1], [1, 1], [2, 2], [0, 0]], 2),         # nullity 1, m > n
]


@settings(max_examples=150, deadline=None)
@given(low_rank(small_ints, 0))
@example(INT_CASES[0])
@example(INT_CASES[1])
@example(INT_CASES[2])
@example(INT_CASES[3])
@example(INT_CASES[4])
def test_nullspace_matches_rref_on_fractions(case):
    M, ncols = case
    basis = nullspace(M, ncols)
    assert basis == _rref_nullspace([[Fraction(v) for v in row] for row in M], ncols)
    assert all(type(v) is Fraction for vec in basis for v in vec)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in M)


def test_nullspace_nullities():
    assert [len(nullspace(M, n)) for M, n in INT_CASES] == [0, 2, 3, 2, 1]
    assert nullspace([[3, 6]], 2) == [[Fraction(-2), Fraction(1)]]


FIELDS = (-3, -1, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_quadratic_field_nullspace_matches_rref_on_scalars(d, data):
    entry = st.builds(lambda a, b: Scalar(a, b, d), small_ints, small_ints)
    M, ncols = data.draw(low_rank(entry, Scalar(0)))
    pairs = [[(int(v.a), int(v.b)) for v in row] for row in M]
    basis = nullspace(pairs, ncols, d)
    assert basis == _rref_nullspace(M, ncols)
    assert all(type(v) is Scalar for vec in basis for v in vec)
    for v in basis:
        assert all(not sum((a * b for a, b in zip(row, v)), Scalar(0)) for row in M)


def test_quadratic_field_matrix_reduces_on_scalars():
    w = Scalar(0, 1, -3)
    A = [[Scalar(1), w], [w, Scalar(2)]]
    inv = mat_inverse(A)
    assert any(v.b for row in inv for v in row)
    assert mat_mul(inv, A) == [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]]


def test_nullspace_rejects_a_ragged_matrix():
    with pytest.raises(DimensionMismatch):
        nullspace([[1, 2], [3]], 2)
    with pytest.raises(DimensionMismatch):
        nullspace([[1, 2, 3]], 2)
    with pytest.raises(DimensionMismatch):
        nullspace([[(1, 0), (2, 1)], [(3, 0)]], 2, -3)


# -- mat_inverse: the nullspace of [A | -I] against rref on the field -------

def _rref_inverse(S):
    """The inverse of the Scalar matrix S by rref of [S | I], or None."""
    n = len(S)
    aug = [list(row) + [Scalar(int(i == j)) for j in range(n)] for i, row in enumerate(S)]
    R, pivots = _rref(aug, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in R]


_ENTRIES = {
    "int": small_ints,
    "Fraction": st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=4)),
    "Q(sqrt -3)": st.builds(lambda a, b: Scalar(a, b, -3), small_ints, small_ints),
    "Q(sqrt 2)": st.builds(lambda a, b: Scalar(a, b, 2), small_ints, small_ints),
}


@st.composite
def square_matrices(draw):
    """An n x n product of an n x k and a k x n matrix over one of the
    fields: singular (k < n) about as often as regular."""
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=n - 1) | st.just(n))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([[2, 1], [1, 1]])
@example([[1, 2], [2, 4]])
@example([[0]])
def test_mat_inverse_matches_rref_on_the_field(A):
    S = [[Scalar.coerce(v) for v in row] for row in A]
    inv = mat_inverse(A)
    assert inv == _rref_inverse(S)
    assert mat_inverse(S) == inv
    if inv is not None:
        assert all(type(v) is Scalar for row in inv for v in row)
        ident = [[int(i == j) for j in range(len(A))] for i in range(len(A))]
        assert mat_mul(S, inv) == ident
        assert mat_mul(inv, S) == ident


def test_mat_inverse_of_an_int_matrix():
    inv = mat_inverse([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(v) is Scalar for row in inv for v in row)
    assert mat_inverse([[1, 2], [2, 4]]) is None
    assert mat_inverse([]) == []


def test_mat_inverse_of_an_int_matrix_with_30_digit_entries():
    b = 10 ** 30
    A = [[b + 1, b, 0], [b, b - 1, 0], [7, 0, 1]]  # det -1
    inv = mat_inverse(A)
    assert inv == [[1 - b, b, 0], [b, -1 - b, 0], [7 * (b - 1), -7 * b, 1]]
    assert mat_mul(A, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mat_inverse([[b, b + 1], [b, b + 1]]) is None


@pytest.mark.parametrize("A", [
    [[1, 2, 3], [4, 5, 6]],
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],
    [[]],
])
def test_mat_inverse_rejects_a_non_square_matrix(A):
    with pytest.raises(DimensionMismatch):
        mat_inverse(A)


def test_mat_inverse_rejects_two_fields():
    with pytest.raises(IncompatibleField):
        mat_inverse([[Scalar(0, 1, 2), 1], [Scalar(0, 1, -3), 1]])
