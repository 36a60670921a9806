"""The lattice Z^{1,n}, Weyl reflections, standard Coxeter elements, and
Salem/Pisot classification of integer polynomials.

Matrices are (n+1) x (n+1) integer lists acting on column vectors in the
basis (e_0, ..., e_n); the quadratic form is x_0^2 - x_1^2 - ... - x_n^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BUDGET_EXCEEDED, BadDimension, DimensionMismatch, InexactDivision, NotARoot
from .linalg import charpoly_int, mat_mul
from .pairpoly import _is_prime, _ueval
from .unipoly import _intpoly_divmod

_FILTER_PRIME_TOP = 1 << 31
MODULUS_TOL = 1e-8
REFINE_TOL = 1e-10
BFS_BUDGET = 10 ** 6


def minkowski(u, v):
    """u0*v0 - u1*v1 - ... - un*vn."""
    if len(u) != len(v):
        raise DimensionMismatch(f"{len(u)} vs {len(v)}")
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def basis_vector(n, i):
    v = [0] * (n + 1)
    v[i] = 1
    return v


def simple_roots(n):
    """alpha_0 = e0-e1-e2-e3 and alpha_j = e_j - e_{j+1}, j = 1..n-1."""
    if n < 3:
        raise BadDimension("need n >= 3")
    roots = []
    a0 = [0] * (n + 1)
    a0[0], a0[1], a0[2], a0[3] = 1, -1, -1, -1
    roots.append(a0)
    for j in range(1, n):
        a = [0] * (n + 1)
        a[j], a[j + 1] = 1, -1
        roots.append(a)
    return roots


def reflect(alpha, x):
    """R_alpha(x) = x + (x . alpha) alpha for a (-2)-root alpha."""
    if minkowski(alpha, alpha) != -2:
        raise NotARoot(f"alpha.alpha = {minkowski(alpha, alpha)} != -2")
    s = minkowski(x, alpha)
    return [xi + s * ai for xi, ai in zip(x, alpha)]


def reflection_matrix(alpha):
    """Matrix of R_alpha (columns are images of basis vectors)."""
    n = len(alpha) - 1
    cols = [reflect(alpha, basis_vector(n, i)) for i in range(n + 1)]
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


def kappa123(n):
    """Reflection in e0 - e1 - e2 - e3."""
    if n < 3:
        raise BadDimension("need n >= 3")
    a = [0] * (n + 1)
    a[0], a[1], a[2], a[3] = 1, -1, -1, -1
    return reflection_matrix(a)


def cyclic_permutation(n):
    """pi_n = R_{alpha_1} ... R_{alpha_{n-1}}: e_i -> e_{i+1} (i=1..n-1), e_n -> e_1."""
    roots = simple_roots(n)
    M = reflection_matrix(roots[1])
    for j in range(2, n):
        M = mat_mul(M, reflection_matrix(roots[j]))
    return M


def standard_element(n):
    """Standard Coxeter element w = pi_n kappa_123 of W_n (kappa_123 at n=3).

    Explicit action: w(e0) = 2e0-e2-e3-e4, w(e1) = e0-e3-e4,
    w(e2) = e0-e2-e4, w(e3) = e0-e2-e3, w(e_j) = e_{j+1} for 4 <= j <= n-1,
    and w(e_n) = e1.
    """
    if n < 3:
        raise BadDimension("need n >= 3")
    if n == 3:
        return kappa123(3)
    size = n + 1
    cols = [[0] * size for _ in range(size)]

    def setcol(j, entries):
        for i, v in entries:
            cols[j][i] = v

    setcol(0, [(0, 2), (2, -1), (3, -1), (4, -1)])
    setcol(1, [(0, 1), (3, -1), (4, -1)])
    setcol(2, [(0, 1), (2, -1), (4, -1)])
    setcol(3, [(0, 1), (2, -1), (3, -1)])
    for j in range(4, n):
        setcol(j, [(j + 1, 1)])
    setcol(n, [(1, 1)])
    return [[cols[j][i] for j in range(size)] for i in range(size)]


def minkowski_gram(n):
    J = [[0] * (n + 1) for _ in range(n + 1)]
    J[0][0] = 1
    for i in range(1, n + 1):
        J[i][i] = -1
    return J


def preserves_form(M):
    n = len(M) - 1
    J = minkowski_gram(n)
    Mt = [list(row) for row in zip(*M)]
    return mat_mul(mat_mul(Mt, J), M) == J


def char_poly(M):
    """Exact characteristic polynomial det(tI - M), constant term first.

    The last matrix's polynomial is kept, so char_poly, salem_classify and
    spectral_radius of one matrix run `charpoly_int` once."""
    return list(_char_poly(_matrix_key(M)))


def _matrix_key(M):
    """The contents of M as a tuple of row tuples, made from a list: CPython
    makes a tuple from an iterator at a guessed length and resizes it, and
    freed resized tuples pile up on its free list (up to 2000 per length)."""
    return tuple([tuple(row) for row in M])


@functools.lru_cache(maxsize=1)
def _char_poly(M):
    """charpoly_int of the matrix contents M, a tuple of row tuples."""
    return tuple(charpoly_int(M))


# -- cyclotomic machinery --------------------------------------------------

def cyclotomic(d):
    """Integer coefficients of the d-th cyclotomic polynomial, constant
    first, as a new list."""
    return list(_cyclotomic(d))


@functools.cache
def _cyclotomic(d):
    """Phi_d as a tuple, shared by every caller."""
    if d < 1:
        raise ValueError(f"cyclotomic polynomial index must be at least 1, got {d}")
    # x^d - 1 divided by the product of Phi_e over proper divisors e of d
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _intpoly_divmod(num, _cyclotomic(e))
            if num is None:
                raise InexactDivision(f"Phi_{e} does not divide x^{d} - 1")
    return tuple(num)


@functools.cache
def _prime_factors(d):
    """The distinct prime factors of d >= 1, ascending, by trial division."""
    primes, m, q = [], d, 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


def _totient(d):
    """Euler's totient d * prod(1 - 1/p) of d >= 1, the degree of Phi_d."""
    out = d
    for p in _prime_factors(d):
        out = out // p * (p - 1)
    return out


@functools.cache
def _cyclotomic_indices(k):
    """The pairs (d, phi(d)) with phi(d) <= k, d ascending: the cyclotomic
    polynomials of degree at most k. Since phi(d) >= sqrt(d/2), they all
    have d <= 2*k^2."""
    return tuple((d, t) for d in range(1, 2 * k * k + 1) if (t := _totient(d)) <= k)


@functools.cache
def _root_of_unity_mod(d):
    """(q, w): the largest prime q = 1 mod d below 2^31 and an element w of
    order d mod q, so that Phi_d(w) = 0 mod q."""
    q = (_FILTER_PRIME_TOP - 2) // d * d + 1
    while q % 2 == 0 or not _is_prime(q):
        q -= d
    primes = _prime_factors(d)
    g = 2
    while True:
        w = pow(g, (q - 1) // d, q)
        if all(pow(w, d // r, q) != 1 for r in primes):
            return q, w
        g += 1


def strip_cyclotomic(p):
    """Divide out all cyclotomic factors of an integer polynomial; returns
    (residual, removed), with removed the indices d of the factors Phi_d in
    ascending order, each as often as it divides. Phi_d is tried only while
    its degree phi(d) is at most the degree still left, and only while p
    vanishes mod q at the root w of Phi_d of `_root_of_unity_mod`: a factor
    Phi_d of p makes p(w) = 0 mod q, so a nonzero value rules it out without
    a division, and the exact division stays the certificate."""
    p = list(p)
    removed = []
    for d, t in _cyclotomic_indices(len(p) - 1):
        if t >= len(p):
            continue
        prime, w = _root_of_unity_mod(d)
        while t < len(p) and not _ueval(p, w, prime):
            q = _intpoly_divmod(p, _cyclotomic(d))
            if q is None:
                break
            removed.append(d)
            p = q
    return p, removed


def poly_roots_numeric(coeffs):
    """Roots of an integer/float polynomial, companion matrix + Newton polish."""
    import numpy as np  # on first use, so that `import cremona` does not load numpy

    cs = [complex(c) for c in coeffs]
    roots = np.roots(cs[::-1])
    out = []
    for r in roots:
        x = complex(r)
        for _ in range(50):
            f = 0j
            fp = 0j
            for c in reversed(cs):
                fp = fp * x + f
                f = f * x + c
            if abs(fp) < 1e-300:
                break
            step = f / fp
            x -= step
            if abs(step) <= REFINE_TOL * max(1.0, abs(x)):
                break
        out.append(x)
    return out


@dataclass
class SalemReport:
    kind: str  # Salem | Pisot | Cyclotomic | Other
    dominant_root: float
    residual: list
    removed_cyclotomic: list
    diagnostics: str = ""


def _int_coeffs(p):
    """p as a tuple of ints; InexactDivision for a non-integral coefficient."""
    out = []
    for c in p:
        if type(c) is not int:
            q = Fraction(c)
            if q.denominator != 1:
                raise InexactDivision(f"coefficient {c!r} is not an integer")
            c = q.numerator
        out.append(c)
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _spectrum(p):
    """(residual, removed, roots) of the int tuple p: strip_cyclotomic's
    residual and removed indices, and the residual's numeric roots (none
    when the residual is a constant), all as tuples. The last polynomial's
    spectrum is kept, so salem_classify and spectral_radius of one
    polynomial strip it and find its roots once."""
    residual, removed = strip_cyclotomic(p)
    roots = poly_roots_numeric(residual) if len(residual) > 1 else ()
    return tuple(residual), tuple(removed), tuple(roots)


def salem_classify(p):
    """Classify an integer polynomial after stripping cyclotomic factors.

    The coefficients must be integers (ints, or integral Fractions or
    floats); any other raises InexactDivision."""
    p = _int_coeffs(p)
    if len(p) < 2 or p[-1] == 0:
        raise ValueError("need a nonzero polynomial of degree >= 1")
    residual, removed, roots = _spectrum(p)
    residual, removed = list(residual), list(removed)
    if len(residual) <= 1:
        return SalemReport("Cyclotomic", 1.0, residual, removed)
    moduli = sorted(abs(r) for r in roots)
    dominant = max(moduli)
    real_dominant = max((r.real for r in roots if abs(r.imag) < MODULUS_TOL and r.real > 0),
                        default=dominant)
    if dominant < 1.0 - MODULUS_TOL:
        return SalemReport("Other", dominant, residual, removed,
                           f"spectral radius {dominant!r} below 1")
    if dominant <= 1.0 + MODULUS_TOL:
        # residual nontrivial but all roots on/in the circle and not cyclotomic
        return SalemReport("Other", dominant, residual, removed,
                           "non-cyclotomic with spectral radius 1")
    inside = [m for m in moduli if m < 1.0 - MODULUS_TOL]
    on_circle = [m for m in moduli if abs(m - 1.0) <= MODULUS_TOL]
    outside = [m for m in moduli if m > 1.0 + MODULUS_TOL]
    if len(outside) != 1:
        return SalemReport("Other", dominant, residual, removed,
                           f"{len(outside)} roots outside the unit circle")
    if on_circle and len(inside) + len(on_circle) + 1 == len(moduli):
        return SalemReport("Salem", real_dominant, residual, removed)
    if not on_circle and len(inside) + 1 == len(moduli):
        return SalemReport("Pisot", real_dominant, residual, removed)
    return SalemReport("Other", dominant, residual, removed, "mixed moduli pattern")


def spectral_radius(M):
    """Largest eigenvalue modulus; exact 1.0 when only cyclotomic factors remain."""
    residual, removed, roots = _spectrum(_char_poly(_matrix_key(M)))
    if len(residual) <= 1:
        return 1.0
    r = max(abs(z) for z in roots)
    return max(r, 1.0) if removed else r


def group_order_bfs(n, budget=BFS_BUDGET):
    """Order of W_n by orbit-stabilizer: |W_n| = 2 * prod_{k=3..n} |W_k e_k|.

    In Z^{1,k}, e_k pairs to 0 with every simple root of W_k but alpha_{k-1}
    (and alpha_0 when k = 3), so it lies in the closed fundamental chamber
    and its stabilizer is the parabolic subgroup of those roots (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12 and 5.13): W_{k-1} for
    k >= 4, and <alpha_1>, of order 2, for k = 3. The orbits have 6, 10,
    16, 27, 56 and 240 elements for k = 3..8, and are infinite from k = 9.
    Returns |W_n| when it is at most `budget` and BUDGET_EXCEEDED otherwise;
    each orbit is closed only up to the size that keeps the running product
    within the budget.
    """
    if n < 3:
        raise BadDimension("need n >= 3")
    order = 2
    if order > budget:
        return BUDGET_EXCEEDED
    for k in range(3, n + 1):
        size = _orbit_size(tuple(basis_vector(k, k)), budget // order)
        if size is BUDGET_EXCEEDED:
            return BUDGET_EXCEEDED
        order *= size  # at most budget, by the orbit's limit
    return order


def _orbit_size(v, limit):
    """Size of the orbit of v under W_k, k = len(v) - 1, or BUDGET_EXCEEDED
    once it has more than `limit` elements. The orbit is closed breadth first
    under the simple reflections, applied to tuples: alpha_j swaps
    coordinates j and j+1, and alpha_0 adds s*alpha_0 with
    s = x0 + x1 + x2 + x3.
    """
    k = len(v) - 1
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            s = x[0] + x[1] + x[2] + x[3]
            images = [(x[0] + s, x[1] - s, x[2] - s, x[3] - s) + x[4:]]
            images.extend(x[:j] + (x[j + 1], x[j]) + x[j + 2:] for j in range(1, k))
            for y in images:
                if y not in seen:
                    seen.add(y)
                    if len(seen) > limit:
                        return BUDGET_EXCEEDED
                    nxt.append(y)
        frontier = nxt
    return len(seen)
