"""Named plane birational maps, stored characteristic matrices, and integer
polynomial families, with verification routines that tie the stored data back
to quantities recomputed by the other modules.

Integer polynomials are coefficient lists, constant term first.  Stored
matrices are transcribed constants; verify_entry checks their internal
consistency (involutions, characteristic polynomials, dominant roots,
composition identities) rather than re-deriving them from blow-ups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    NOT_CONTRACTED,
    NOT_FOUND,
    InexactDivision,
    OrbitHitsIndeterminacy,
    PoleAtParameter,
)
from .linalg import charpoly_int, mat_inverse, mat_mul
from .poly import HomPoly, LinearForm, divide_exact, parse_poly, substitute
from .ratmap import (
    ProjPoint,
    RatMap,
    compose,
    inverse,
    is_contracted_line,
    quadratic_classify,
)
from .scalars import Scalar
from .unipoly import _intpoly_divmod, padd, pmul
from .weyl import salem_classify

# -- named quadratic and cubic maps ---------------------------------------

def _coprime(text):
    """The map of a coprime triple `f0 : f1 : f2`, built without a gcd
    (`tests/test_catalog.py` checks that each one is coprime)."""
    return RatMap(tuple(parse_poly(p) for p in text.split(":")))


SIGMA = _coprime("y*z : x*z : x*y")
RHO = _coprime("x*y : z^2 : y*z")
TAU = _coprime("x^2 : x*y : y^2 - x*z")

PSI = _coprime("y^2*z : x^2*z + x*y^2 : x*y*z + y^3")
PSI_INVERSE = _coprime("y*z^2 - x*y^2 : z^3 - x*y*z : x*z^2")

ETA = _coprime("y : x : z")
E_INVOLUTION = _coprime("x*y : x*z : y*z")
GIZATULLIN_H = _coprime("x : x - y : x - z")

CUBIC_TABLE = (
    _coprime("x*z^2 + y^3 : y*z^2 : z^3"),
    _coprime("x^3 : y^2*z : x*y*z"),
    _coprime("x^2*z + x*y*z : x*y*z + y^2*z : x*y^2"),
)

M_SIGMA = [
    [2, 1, 1, 1],
    [-1, 0, -1, -1],
    [-1, -1, 0, -1],
    [-1, -1, -1, 0],
]

# 16x16 action matrices of the two degree-3 automorphism constructions, in
# their exceptional-divisor bases; both have characteristic polynomial
# (X^2-3X+1)(X^2-X+1)(X+1)^2(X^2+X+1)^3(X-1)^4 with dominant root (3+sqrt5)/2.
PHI3_ACTION_16 = [
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
]

PSI_ACTION_16 = [
    [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -2, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, -3, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, -4, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
]

ACTION_16_CHARPOLY_FACTORS = (
    [1, -3, 1],  # X^2 - 3X + 1
    [1, -1, 1],  # X^2 - X + 1
    [1, 1], [1, 1],  # (X + 1)^2
    [1, 1, 1], [1, 1, 1], [1, 1, 1],  # (X^2 + X + 1)^3
    [-1, 1], [-1, 1], [-1, 1], [-1, 1],  # (X - 1)^4
)

LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


# -- parametrized map families --------------------------------------------

def phi_map(n):
    """(x z^(n-1) + y^n : y z^(n-1) : z^n), bounded degree growth, n >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    x, y, z = (HomPoly.var(v) for v in "xyz")
    return RatMap((x * z ** (n - 1) + y ** n, y * z ** (n - 1), z ** n))


PHI3 = phi_map(3)


def f_alphabeta(alpha, beta):
    """((alpha x + y) z : beta y (x + z) : z (x + z)); linear degree growth."""
    alpha = Scalar.coerce(alpha)
    beta = Scalar.coerce(beta)
    x, y, z = (HomPoly.var(v) for v in "xyz")
    return RatMap((
        (x * alpha + y) * z,
        y * beta * (x + z),
        z * (x + z),
    ))


def f_ab(a, b):
    """(x (bx + y) : z (bx + y) : x (ax + z)): the affine (y, z) part is
    (z, (a + z)/(b + y)); its contracted line a x + z = 0 goes to (1 : -a : 0)
    and the distinguished landing point is p_star = (1 : -b : -a)."""
    a = Scalar.coerce(a)
    b = Scalar.coerce(b)
    x, y, z = (HomPoly.var(v) for v in "xyz")
    return RatMap((
        x * (x * b + y),
        z * (x * b + y),
        x * (x * a + z),
    ))


def f_ab_pstar(a, b):
    return ProjPoint([Scalar(1), -Scalar.coerce(b), -Scalar.coerce(a)])


def mcmullen_map(a, b):
    """Projectivization of the affine family (x, y) -> (a + y, b + y/x)."""
    a = Scalar.coerce(a)
    b = Scalar.coerce(b)
    x, y, z = (HomPoly.var(v) for v in "xyz")
    return RatMap((
        x * (z * a + y),
        z * (x * b + y),
        x * z,
    ))


def mcmullen_p4(a, b):
    """First free orbit point (a : b : 1) of the base-point chain."""
    return ProjPoint([Scalar.coerce(a), Scalar.coerce(b), Scalar(1)])


# -- conjugating matrices for the degree-3 constructions -------------------

def phi_alpha_phi3(alpha):
    """Linear map whose composition with phi_map(3) lifts to an automorphism
    with dynamical degree (3 + sqrt 5)/2; alpha outside {0, 1}."""
    a = Scalar.coerce(alpha)
    one = Scalar(1)
    two = Scalar(2)
    M = [
        [a, two * (one - a), two + a - a * a],
        [-one, Scalar(0), a + one],
        [one, -two, one - a],
    ]
    if mat_inverse(M) is None:
        raise PoleAtParameter(f"matrix degenerates at alpha = {a}")
    return M


def conjugation_matrix_phi3(alpha, alpha0):
    a = Scalar.coerce(alpha)
    a0 = Scalar.coerce(alpha0)
    one, zero = Scalar(1), Scalar(0)
    return [[one, zero, a0 - a], [zero, one, zero], [zero, zero, one]]


def phi_alpha_psi(alpha):
    """Linear map whose composition with PSI lifts to an automorphism with
    dynamical degree (3 + sqrt 5)/2; entries live in Q(sqrt(-3)), alpha != 0."""
    a = Scalar.coerce(alpha)
    if not a:
        raise PoleAtParameter("alpha must be nonzero")
    s3 = Scalar(0, 1, -3)  # a square root of -3
    one, zero = Scalar(1), Scalar(0)
    return [
        [a ** 3 * Scalar(Fraction(2, 343)) * (s3 * 37 + 3), a,
         -(a ** 2) * Scalar(Fraction(2, 49)) * (s3 * 5 + 11)],
        [a ** 2 * Scalar(Fraction(1, 49)) * (s3 * 11 - 15), one,
         -a * Scalar(Fraction(1, 14)) * (s3 * 5 + 11)],
        [-a * Scalar(Fraction(1, 7)) * (s3 * 2 + 3), zero, zero],
    ]


def conjugation_matrix_psi(alpha, alpha0):
    a = Scalar.coerce(alpha)
    a0 = Scalar.coerce(alpha0)
    r = a / a0
    zero = Scalar(0)
    return [[Scalar(1), zero, zero], [zero, r, zero], [zero, zero, r * r]]


# -- integer polynomial families ------------------------------------------

def chi_n(n):
    """t^(n+1) (t^3 - t - 1) + t^3 + t^2 - 1, constant first."""
    if n < 0:
        raise ValueError("need n >= 0")
    shifted = [0] * (n + 1) + [-1, -1, 0, 1]
    return padd(shifted, [-1, 0, 1, 1])


def chi_nk(n, k):
    """1 - k (x + x^2 + ... + x^(n-1)) + x^n."""
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    return [1] + [-k] * (n - 1) + [1]


def p_nm(n, m):
    """t (t^(nm) - 1)(t^n - 2 t^(n-1) + 1) / ((t^n - 1)(t - 1)) + 1.

    The division must be exact; an inexact division signals a transcription
    error in the stored formula and raises InexactDivision.
    """
    if n < 3 or m < 1:
        raise ValueError("need n >= 3 and m >= 1")
    fac1 = [-1] + [0] * (n * m - 1) + [1]          # t^(nm) - 1
    fac2 = [1] + [0] * (n - 2) + [-2, 1]           # t^n - 2 t^(n-1) + 1
    num = pmul([0, 1], pmul(fac1, fac2))  # leading t factor
    den = pmul([-1] + [0] * (n - 1) + [1], [-1, 1])
    quo = _intpoly_divmod(num, den)
    if quo is None:
        raise InexactDivision(f"(t^{n}-1)(t-1) does not divide the numerator")
    return padd(quo, [1])


def bk_matrix(n):
    """(n+4) x (n+4) action matrix of f_ab on the basis
    {H, E1, E2, Q, f(Q), ..., f^n(Q)}; its dominant eigenvalue is the
    largest root of chi_n(n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    size = n + 4
    cols = [[0] * size for _ in range(size)]
    cols[0][0], cols[0][1], cols[0][2], cols[0][3] = 2, -1, -1, -1
    cols[1][0], cols[1][1], cols[1][3] = 1, -1, -1
    cols[2][0], cols[2][1], cols[2][2] = 1, -1, -1
    cols[3][4] = 1
    for c in range(4, n + 3):
        cols[c][c + 1] = 1
    last = cols[n + 3]
    last[0], last[2], last[3] = 1, -1, -1
    return [[cols[j][i] for j in range(size)] for i in range(size)]


# -- invariant-cubic parametrizations --------------------------------------

_PHI_EXCLUDED = "t must avoid {0, 1, -1} and the primitive cube roots of 1"


def _phi_guard(t):
    t = Scalar.coerce(t)
    if (not t) or t == Scalar(1) or t == Scalar(-1) or not (t * t + t + 1):
        raise PoleAtParameter(_PHI_EXCLUDED)
    return t


def phi_j(j, t):
    """Parameter curves (a, b) = phi_j(t) along which f_ab has an invariant
    cubic with j irreducible components."""
    t = _phi_guard(t)
    one = Scalar(1)
    if j == 1:
        den1 = one + t * 2 + t * t
        den2 = t * t + t ** 3
        return ((t - t ** 3 - t ** 4) / den1, (one - t ** 5) / den2)
    if j == 2:
        den1 = one + t * 2 + t * t
        den2 = t + t * t
        return ((t + t * t + t ** 3) / den1, (t ** 3 - one) / den2)
    if j == 3:
        return (one + t, t - one / t)
    raise ValueError("j must be 1, 2 or 3")


def invariant_cubic(t, a, b):
    """The cubic form preserved by f_ab(a, b) when (a, b) = phi_j(t)."""
    t = Scalar.coerce(t)
    a = Scalar.coerce(a)
    b = Scalar.coerce(b)
    one = Scalar(1)
    u = t - one
    t3 = t ** 3
    t4 = t ** 4
    terms = {
        (3, 0, 0): a * u * t4,
        (0, 1, 2): u * t,
        (0, 2, 1): u * t * t,
        (1, 1, 1): b * t3 * 2,
        (1, 2, 0): u * t3,
        (1, 0, 2): u * (one + b * t),
        (2, 1, 0): u * t3 * (a + t),
        (2, 0, 1): u * t3 * (a * t + t * (t - b * 2)),
    }
    return HomPoly(terms, 3)


# -- orbit residuals for the f_ab realization conditions -------------------

def _is_exact_param(v):
    return isinstance(v, (int, Fraction, Scalar))


def vn_residual(a, b, n):
    """Orbit q, f(q), ..., f^n(q) of the contraction target q = (1 : -a : 0)
    under f_ab, plus the residual |f^n(q) x p_star|; residual 0 is the
    degree-n realization condition.  Exact for Scalar parameters, floating
    for complex ones."""
    if n < 1:
        raise ValueError("need n >= 1")
    if _is_exact_param(a) and _is_exact_param(b):
        return _vn_residual_exact(Scalar.coerce(a), Scalar.coerce(b), n)
    return _vn_residual_numeric(complex(a), complex(b), n)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _vn_residual_exact(a, b, n):
    f = f_ab(a, b)
    q = is_contracted_line(f, LinearForm([a, Scalar(0), Scalar(1)]))
    if q is NOT_CONTRACTED:
        raise ValueError("the line a x + z = 0 is not contracted")
    points = [q]
    for j in range(1, n + 1):
        nxt = f.apply(points[-1])
        if nxt is None:
            raise OrbitHitsIndeterminacy(
                f"f^{j}(q) lands on an indeterminacy point"
            )
        points.append(nxt)
    pstar = f_ab_pstar(a, b)
    cr = _cross(points[-1].coords, pstar.coords)
    residual = sum(abs(c.to_complex()) ** 2 for c in cr) ** 0.5
    return points, residual


def _vn_residual_numeric(a, b, n):
    def step(p):
        x, y, z = p
        u = b * x + y
        out = (x * u, z * u, x * (a * x + z))
        scale = max(abs(c) for c in out)
        if scale < 1e-14:
            raise OrbitHitsIndeterminacy("orbit point collapses numerically")
        return tuple(c / scale for c in out)

    points = [(1.0 + 0j, -a, 0j)]
    for _ in range(n):
        points.append(step(points[-1]))
    pstar = (1.0 + 0j, -b, -a)
    cr = _cross(points[-1], pstar)
    residual = sum(abs(c) ** 2 for c in cr) ** 0.5
    return points, residual


# -- entry verification ----------------------------------------------------

@dataclass
class VerifyItem:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    name: str
    items: list = field(default_factory=list)

    @property
    def ok(self):
        return all(it.passed for it in self.items)

    @property
    def failures(self):
        return [it for it in self.items if not it.passed]

    def add(self, label, passed, detail=""):
        self.items.append(VerifyItem(label, bool(passed), detail))


def _poly_equiv(p, q):
    """Agreement up to overall sign and the substitution t -> -t."""
    if len(p) != len(q):
        return False
    flip = [(-1) ** i * c for i, c in enumerate(q)]
    return p in (q, [-c for c in q], flip, [-c for c in flip])


def _check_quadratic(rep, f, stratum):
    rep.add("degree 2", f.degree == 2)
    rep.add("involution", compose(f, f).is_identity())
    inv = inverse(f, 2)
    rep.add("self-inverse", inv is not NOT_FOUND and inv == f)
    qc = quadratic_classify(f)
    rep.add(f"stratum {stratum}", qc.stratum == stratum,
            f"classified {qc.stratum}")


def _verify_sigma(rep):
    _check_quadratic(rep, SIGMA, "Sigma3")
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    rep.add("M_sigma squares to identity", mat_mul(M_SIGMA, M_SIGMA) == ident)
    rep.add("det M_sigma = +-1", abs(charpoly_int(M_SIGMA)[0]) == 1)


def _verify_rho(rep):
    _check_quadratic(rep, RHO, "Sigma2")


def _verify_tau(rep):
    _check_quadratic(rep, TAU, "Sigma1")


def _verify_psi(rep):
    rep.add("degree 3", PSI.degree == 3)
    inv = inverse(PSI, 3)
    rep.add("inverse found", inv is not NOT_FOUND)
    if inv is not NOT_FOUND:
        rep.add("inverse matches stored form", inv == PSI_INVERSE)
    rep.add("composes to identity", compose(PSI_INVERSE, PSI).is_identity())


def _verify_action16(rep, M):
    cp = charpoly_int(M)
    expected = functools.reduce(pmul, ACTION_16_CHARPOLY_FACTORS)
    rep.add("characteristic polynomial matches stored factorization",
            _poly_equiv(cp, expected))
    rep.add("det = +-1", abs(cp[0]) == 1)
    residual = _intpoly_divmod(cp, [1, -3, 1]) or _intpoly_divmod(cp, [1, 3, 1])
    rep.add("X^2 - 3X + 1 divides", residual is not None)
    dom = salem_classify(cp).dominant_root
    golden = (3 + 5 ** 0.5) / 2
    rep.add("dominant root (3 + sqrt 5)/2", abs(dom - golden) < 1e-12,
            f"got {dom!r}")


def _verify_iskovskikh(rep):
    prod = compose(ETA, E_INVOLUTION)
    cube = compose(prod, compose(prod, prod))
    rep.add("(eta e)^3 = (yz : xz : xy)", cube == SIGMA)


def _verify_gizatullin(rep):
    prod = compose(GIZATULLIN_H, SIGMA)
    cube = compose(prod, compose(prod, prod))
    rep.add("(h sigma)^3 = id", cube.is_identity())


def _conjugacy_holds(f, phi_of, mk_conj, alpha, alpha0):
    lhs = compose(RatMap.from_matrix(phi_of(alpha)), f)
    base = compose(RatMap.from_matrix(phi_of(alpha0)), f)
    M = mk_conj(alpha, alpha0)
    Minv = mk_conj(alpha0, alpha)  # both conjugator families invert this way
    rhs = compose(RatMap.from_matrix(Minv),
                  compose(base, RatMap.from_matrix(M)))
    return lhs == rhs


def _verify_conjugacy_phi3(rep):
    ok = _conjugacy_holds(PHI3, phi_alpha_phi3, conjugation_matrix_phi3,
                          Fraction(1), Fraction(2))
    rep.add("phi_alpha Phi_3 conjugate across parameters", ok)


def _verify_conjugacy_psi(rep):
    ok = _conjugacy_holds(PSI, phi_alpha_psi, conjugation_matrix_psi,
                          Fraction(1), Fraction(2))
    rep.add("phi_alpha psi conjugate across parameters", ok)


def _verify_cubic_table(rep):
    for i, f in enumerate(CUBIC_TABLE):
        # inverse certifies what it returns: inv o f = id, so also f o inv = id
        rep.add(f"cubic row {i} invertible in degree 3",
                inverse(f, 3) is not NOT_FOUND)


def _verify_mcmullen(rep):
    p1 = ProjPoint([Scalar(0), Scalar(0), Scalar(1)])
    rep.add("p4 = p1 at (a, b) = (0, 0)", mcmullen_p4(0, 0) == p1)
    rep.add("p4 != p1 off the origin",
            mcmullen_p4(1, 0) != p1 and mcmullen_p4(0, 1) != p1)
    f = mcmullen_map(0, 0)
    rep.add("degree 2 at the origin", f.degree == 2)


def _verify_bk_matrix(rep):
    cps = {n: charpoly_int(bk_matrix(n)) for n in (1, 4, 7)}
    for n, cp in cps.items():
        rep.add(f"det bk_matrix({n}) = +-1", abs(cp[0]) == 1)
    dom_m = salem_classify(cps[7]).dominant_root
    dom_p = salem_classify(chi_n(7)).dominant_root
    rep.add("bk_matrix(7) dominant root matches chi_n(7)",
            abs(dom_m - dom_p) < 1e-9, f"{dom_m!r} vs {dom_p!r}")


def _verify_invariant_cubic(rep):
    t = Fraction(2)
    for j in (1, 2, 3):
        a, b = phi_j(j, t)
        P = invariant_cubic(t, a, b)
        rep.add(f"phi_{j}: homogeneous of degree 3",
                P.degree == 3 and not P.is_zero())
        pulled = substitute(P, f_ab(a, b).components)
        quot = divide_exact(pulled, P)
        rep.add(f"phi_{j}: P o f_ab divisible by P", quot is not None,
                f"flagged discrepancy: divisibility fails at phi_{j}(2)"
                if quot is None else "")
    a, b = phi_j(3, t)
    P = invariant_cubic(t, a, b)
    generic = f_ab(Fraction(1, 3), Fraction(5, 7))
    pulled2 = substitute(P, generic.components)
    rep.add("not divisible off the curve", divide_exact(pulled2, P) is None)


_ENTRIES = {
    "sigma": _verify_sigma,
    "rho": _verify_rho,
    "tau": _verify_tau,
    "psi": _verify_psi,
    "phi3-16x16": lambda rep: _verify_action16(rep, PHI3_ACTION_16),
    "psi-16x16": lambda rep: _verify_action16(rep, PSI_ACTION_16),
    "iskovskikh-relation": _verify_iskovskikh,
    "gizatullin-relation": _verify_gizatullin,
    "conjugacy-phi3": _verify_conjugacy_phi3,
    "conjugacy-psi": _verify_conjugacy_psi,
    "cubic-table": _verify_cubic_table,
    "mcmullen": _verify_mcmullen,
    "bk-matrix": _verify_bk_matrix,
    "invariant-cubic": _verify_invariant_cubic,
}


def entry_names():
    return sorted(_ENTRIES)


def verify_entry(name):
    """Recompute the re-derivable data of a named entry; the report lists
    each checked item with a pass/fail flag."""
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}")
    rep = VerifyReport(name=name)
    _ENTRIES[name](rep)
    return rep


def verify_all():
    return [verify_entry(name) for name in entry_names()]
