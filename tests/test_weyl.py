"""Lattice reflections, standard elements, Salem/Pisot classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cremona import weyl
from cremona.errors import BUDGET_EXCEEDED, InexactDivision
from cremona.linalg import charpoly_int, mat_mul
from cremona.unipoly import _intpoly_divmod, pmul
from cremona.weyl import (
    BFS_BUDGET,
    _cyclotomic_indices,
    _root_of_unity_mod,
    char_poly,
    cyclic_permutation,
    cyclotomic,
    group_order_bfs,
    kappa123,
    minkowski,
    poly_roots_numeric,
    preserves_form,
    reflect,
    reflection_matrix,
    salem_classify,
    simple_roots,
    spectral_radius,
    standard_element,
    strip_cyclotomic,
)

LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def test_simple_roots_have_square_minus_two():
    for n in (4, 7, 10):
        for a in simple_roots(n):
            assert minkowski(a, a) == -2


def test_reflections_are_involutive_isometries():
    for n in (4, 7):
        for a in simple_roots(n):
            M = reflection_matrix(a)
            assert preserves_form(M)
            size = n + 1
            ident = [[1 if i == j else 0 for j in range(size)]
                     for i in range(size)]
            assert mat_mul(M, M) == ident


def test_reflect_fixes_orthogonal_vectors():
    a = simple_roots(5)[2]  # e2 - e3
    x = [1, 0, 0, 0, 0, 0]
    assert reflect(a, x) == x


def test_standard_element_word_identity():
    for n in (4, 7, 10):
        word = mat_mul(cyclic_permutation(n), kappa123(n))
        assert word == standard_element(n)
        assert preserves_form(standard_element(n))


def _column(n, entries):
    v = [0] * (n + 1)
    for i, c in entries:
        v[i] = c
    return v


@pytest.mark.parametrize("n", range(4, 17))
def test_standard_element_has_the_explicit_action(n):
    cols = [list(c) for c in zip(*standard_element(n))]
    assert cols[0] == _column(n, [(0, 2), (2, -1), (3, -1), (4, -1)])
    assert cols[1] == _column(n, [(0, 1), (3, -1), (4, -1)])
    assert cols[2] == _column(n, [(0, 1), (2, -1), (4, -1)])
    assert cols[3] == _column(n, [(0, 1), (2, -1), (3, -1)])
    for j in range(4, n):
        assert cols[j] == _column(n, [(j + 1, 1)])
    assert cols[n] == _column(n, [(1, 1)])


def test_standard_element_at_n3_is_kappa123():
    assert standard_element(3) == kappa123(3) == [
        [2, 1, 1, 1], [-1, 0, -1, -1], [-1, -1, 0, -1], [-1, -1, -1, 0]]


def test_lehmer_divides_charpoly_n10():
    cp = char_poly(standard_element(10))
    residual, removed = strip_cyclotomic(cp)
    assert residual == LEHMER
    rep = salem_classify(cp)
    assert rep.kind == "Salem"
    assert abs(rep.dominant_root - 1.17628081) < 1e-6


def test_pisot_classification():
    rep = salem_classify([-1, -1, 0, 1])  # t^3 - t - 1
    assert rep.kind == "Pisot"
    assert abs(rep.dominant_root - 1.324717957) < 1e-8


def test_cyclotomic_classification():
    rep = salem_classify(cyclotomic(12))
    assert rep.kind == "Cyclotomic"


@pytest.mark.parametrize("p", [[Fraction(1, 2), 0, 1], [1.5, -3, 1], [1, Fraction(7, 3), 0, 1]])
def test_non_integral_coefficients_are_an_error(p):
    """No coefficient is truncated: x^2 / 2 + ... is not classified as x^2."""
    with pytest.raises(InexactDivision):
        salem_classify(p)


def test_integral_coefficients_of_any_type_are_accepted():
    rep = salem_classify([Fraction(-1), -1.0, 0, True])  # t^3 - t - 1
    assert rep.kind == "Pisot" and rep.residual == [-1, -1, 0, 1]
    assert all(type(c) is int for c in rep.residual)


def test_radius_below_one_is_not_reported_as_one():
    rep = salem_classify([0, 0, 1])  # t^2
    assert rep.kind == "Other" and rep.dominant_root == 0.0
    assert "below 1" in rep.diagnostics and "radius 1" not in rep.diagnostics
    rep = salem_classify([2, 1, 2])  # roots on the unit circle, not cyclotomic
    assert rep.kind == "Other" and rep.diagnostics == "non-cyclotomic with spectral radius 1"


def test_spectral_radius_threshold():
    assert spectral_radius(standard_element(8)) == 1.0
    assert spectral_radius(standard_element(9)) == 1.0
    assert spectral_radius(standard_element(10)) > 1.0
    assert spectral_radius(standard_element(11)) > 1.0


def test_coxeter_radius_independent_of_ordering():
    rng = random.Random(5)
    for n in (10, 11):
        gens = [reflection_matrix(a) for a in simple_roots(n)]
        base = None
        for _ in range(4):
            order = list(range(n))
            rng.shuffle(order)
            M = gens[order[0]]
            for i in order[1:]:
                M = mat_mul(M, gens[i])
            r = spectral_radius(M)
            if base is None:
                base = r
            assert abs(r - base) < 1e-8


def test_group_orders_small():
    assert group_order_bfs(3) == 12
    assert group_order_bfs(4) == 120
    assert group_order_bfs(5) == 1920


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == [-1, 1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(6) == [1, -1, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_returns_a_new_list():
    p = cyclotomic(3)
    p.append(7)
    assert cyclotomic(3) == [1, 1, 1]
    assert strip_cyclotomic([1, 1, 1]) == ([1], [3])


@pytest.mark.parametrize("d", [0, -1, -12])
def test_cyclotomic_index_below_one_is_an_error(d):
    with pytest.raises(ValueError):
        cyclotomic(d)
    with pytest.raises(ValueError):  # nothing was cached for d
        cyclotomic(d)


def _totients(m):
    """phi(1..m) by a sieve over the primes: phi[d] for d <= m."""
    phi = list(range(m + 1))
    for p in range(2, m + 1):
        if phi[p] == p:  # p is prime
            for d in range(p, m + 1, p):
                phi[d] -= phi[d] // p
    return phi


def test_cyclotomic_indices_match_a_sieve():
    """Every d with phi(d) <= k, searched up to twice the bound 2 k^2."""
    phi = _totients(4 * 40 * 40)
    for k in range(41):
        want = tuple((d, phi[d]) for d in range(1, len(phi)) if phi[d] <= k)
        assert _cyclotomic_indices(k) == want


def test_poly_roots_refined():
    roots = poly_roots_numeric([1, -3, 1])
    vals = sorted(r.real for r in roots)
    assert abs(vals[1] - (3 + 5 ** 0.5) / 2) < 1e-12


def test_budget_constant_sane():
    assert BFS_BUDGET >= 10 ** 5


def _matrix_bfs_order(n):
    """|W_n| by closing the set of products of simple reflection matrices."""
    gens = [reflection_matrix(a) for a in simple_roots(n)]
    ident = tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens:
                P = tuple(tuple(r) for r in mat_mul([list(r) for r in M], g))
                if P not in seen:
                    seen.add(P)
                    nxt.append(P)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chamber_orbit_order_matches_matrix_bfs(n):
    assert group_order_bfs(n) == _matrix_bfs_order(n)


def test_group_order_budget_on_infinite_group():
    assert group_order_bfs(9, budget=2000) is BUDGET_EXCEEDED


WEYL_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040, 8: 696729600}


@pytest.mark.parametrize("n", sorted(WEYL_ORDERS))
def test_group_order_budget_is_exact(n):
    order = WEYL_ORDERS[n]
    assert group_order_bfs(n, budget=order) == order
    assert group_order_bfs(n, budget=order - 1) is BUDGET_EXCEEDED


@pytest.mark.parametrize("n", [9, 10])
def test_infinite_group_exceeds_any_budget_beyond_w8(n):
    assert group_order_bfs(n, budget=WEYL_ORDERS[8] * 300) is BUDGET_EXCEEDED


def _coxeter_charpoly(n):
    """McMullen's t^(n+1) - t^(n-1) - t^(n-2) + t^3 + t^2 - 1, constant first."""
    c = [0] * (n + 2)
    for e, v in ((n + 1, 1), (n - 1, -1), (n - 2, -1), (3, 1), (2, 1), (0, -1)):
        c[e] += v
    return c


@pytest.mark.parametrize("n", range(10, 18))
def test_charpoly_of_weyl_conjugates_is_mcmullens_closed_form(n):
    rng = random.Random(n)
    refl = [reflection_matrix(a) for a in simple_roots(n)]
    M = standard_element(n)
    assert charpoly_int(M) == _coxeter_charpoly(n)
    for _ in range(12):
        R = refl[rng.randrange(n)]
        M = mat_mul(mat_mul(R, M), R)
    assert charpoly_int(M) == _coxeter_charpoly(n)


def _strip_every_d(p):
    """strip_cyclotomic's reference: trial division by every Phi_d with
    d <= 2 k^2, k the input degree, while phi(d) from the sieve `_totients`
    fits the degree still left; no index table and no modular filter."""
    p = list(p)
    removed = []
    deg0 = len(p) - 1
    phi = _totients(2 * deg0 * deg0)
    for d in range(1, len(phi)):
        while phi[d] < len(p):
            q = _intpoly_divmod(p, cyclotomic(d))
            if q is None:
                break
            removed.append(d)
            p = q
    return p, removed


_PHI = _totients(30)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                          st.integers(min_value=1, max_value=3)), max_size=2)
       .filter(lambda fs: sum(_PHI[d] * m for d, m in fs) <= 60), st.booleans())
def test_strip_cyclotomic_matches_every_d_reference(factors, with_lehmer):
    """Products of Phi_d, d <= 30, each up to the third power, with and
    without Lehmer's polynomial."""
    p = LEHMER if with_lehmer else [1]
    for d, m in factors:
        for _ in range(m):
            p = pmul(p, cyclotomic(d))
    residual, removed = strip_cyclotomic(p)
    assert (residual, removed) == _strip_every_d(p)
    assert removed == sorted(d for d, m in factors for _ in range(m))
    assert residual == (LEHMER if with_lehmer else [1])


@pytest.mark.parametrize("d", [1, 2, 5, 12, 30])
def test_strip_cyclotomic_divides_where_the_filter_passes(d):
    """Phi_d + q vanishes at the filter's root w mod q, but Phi_d does not
    divide it: the exact division decides."""
    prime, w = _root_of_unity_mod(d)
    assert (prime - 1) % d == 0 and all(pow(w, k, prime) != 1 for k in range(1, d))
    p = list(cyclotomic(d))
    p[0] += prime
    p = pmul(p, cyclotomic(d))
    residual, removed = strip_cyclotomic(p)
    assert (residual, removed) == _strip_every_d(p)
    assert removed.count(d) == 1


def _weyl_conjugates(seed):
    """w S_n w^-1 for n = 10..16, w a word of 8 simple reflections."""
    rng = random.Random(seed)
    out = []
    for n in range(10, 17):
        refl = [reflection_matrix(a) for a in simple_roots(n)]
        M = standard_element(n)
        for _ in range(8):
            R = refl[rng.randrange(n)]
            M = mat_mul(mat_mul(R, M), R)
        out.append(M)
    return out


def _small_matrices(seed, count=40):
    """`count` distinct integer matrices of sizes 1..6, entries in [-3, 3]."""
    rng = random.Random(seed)
    seen = {}
    while len(seen) < count:
        k = rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        seen.setdefault(tuple(map(tuple, M)), M)
    return list(seen.values())


def _reference(M):
    """(charpoly, residual, removed, largest root modulus, spectral radius)
    from the primitives, with nothing kept between calls."""
    cp = charpoly_int(M)
    residual, removed = strip_cyclotomic(cp)
    if len(residual) <= 1:
        return cp, residual, removed, 1.0, 1.0
    r = max(abs(z) for z in poly_roots_numeric(residual))
    return cp, residual, removed, r, (max(r, 1.0) if removed else r)


# radius 0 with and without a cyclotomic factor, 1 from a cyclotomic factor
# alone, and 2 beside one
FIXED_MATRICES = [[[0]], [[0, 1], [0, 0]], [[1, 0], [0, 0]], [[2, 0], [0, -1]], [[0, -1], [1, 0]]]
MATRIX_SOURCES = {
    "weyl-3": lambda: _weyl_conjugates(3),
    "weyl-11": lambda: _weyl_conjugates(11),
    "small-5": lambda: _small_matrices(5),
    "fixed": lambda: FIXED_MATRICES,
}


@pytest.mark.parametrize("source", sorted(MATRIX_SOURCES))
def test_shared_spectrum_matches_the_primitives(source):
    for M in MATRIX_SOURCES[source]():
        cp, residual, removed, r, radius = _reference(M)
        for radius_first in (False, True):
            weyl._char_poly.cache_clear()
            weyl._spectrum.cache_clear()
            if radius_first:
                assert spectral_radius(M) == radius
            assert char_poly(M) == cp
            rep = salem_classify(char_poly(M))
            assert (rep.residual, rep.removed_cyclotomic) == (residual, removed)
            if rep.kind in ("Salem", "Pisot"):
                assert abs(rep.dominant_root - r) <= 1e-12 * r
            else:
                assert rep.dominant_root == r
            assert spectral_radius(M) == radius
        if source.startswith("weyl"):
            assert rep.kind == "Salem" and radius > 1.0


def test_one_matrix_runs_each_primitive_once(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(weyl, name, wrapper)

    for name in ("charpoly_int", "strip_cyclotomic", "poly_roots_numeric"):
        counting(name, getattr(weyl, name))
    weyl._char_poly.cache_clear()
    weyl._spectrum.cache_clear()
    M = _weyl_conjugates(7)[2]
    for _ in range(2):
        salem_classify(char_poly(M))
        spectral_radius(M)
    assert calls == ["charpoly_int", "strip_cyclotomic", "poly_roots_numeric"]


def test_mutating_results_leaves_the_next_answer_unchanged():
    M = standard_element(12)
    cp = char_poly(M)
    want_cp = list(cp)
    rep = salem_classify(cp)
    want = (rep.kind, rep.dominant_root, list(rep.residual), list(rep.removed_cyclotomic))
    cp[0] += 5
    cp.append(1)
    rep.residual[0] += 7
    rep.residual.append(2)
    rep.removed_cyclotomic.append(3)
    rep.removed_cyclotomic[0] = 99
    assert char_poly(M) == want_cp
    again = salem_classify(want_cp)
    assert (again.kind, again.dominant_root, again.residual, again.removed_cyclotomic) == want
    assert again.residual is not rep.residual
    assert spectral_radius(M) == want[1]


def test_memos_hold_at_most_one_entry():
    for M in _small_matrices(9, count=50):
        salem_classify(char_poly(M))
        spectral_radius(M)
    for memo in (weyl._char_poly, weyl._spectrum):
        info = memo.cache_info()
        assert info.maxsize == 1 and info.currsize <= 1
