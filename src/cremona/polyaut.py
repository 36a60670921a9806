"""Polynomial automorphisms of the affine plane.

Composition, inversion, the decomposition into alternating affine /
elementary factors by leading-term cancellation (the automorphism check:
at every step the top form of one component is a scalar times the top form
of a power of the other), and the Henon test: f is of Henon type exactly
when deg(f o f) > deg(f), and then its dynamical degree is
deg(f o f) / deg(f).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NOT_AUTOMORPHISM
from .poly import BiPoly, HomPoly, parse_poly
from .scalars import Scalar

SZERO = Scalar(0)
SONE = Scalar(1)

DEGREE_CAP = 64

_X = BiPoly.var("x")
_Y = BiPoly.var("y")


class PolyAut:
    """Pair of bivariate polynomials (f1, f2) acting on the affine plane."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(BiPoly.coerce(c) for c in components)
        if len(components) != 2:
            raise ValueError("need exactly two components")
        object.__setattr__(self, "components", components)

    def __setattr__(self, *_):
        raise AttributeError("PolyAut is immutable")

    @staticmethod
    def identity():
        return PolyAut((_X, _Y))

    @staticmethod
    def swap():
        return PolyAut((_Y, _X))

    @property
    def degree(self):
        return max(c.degree for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyAut):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def is_identity(self):
        return self == PolyAut.identity()

    def apply(self, x, y):
        return (self.components[0].eval(x, y), self.components[1].eval(x, y))

    def to_ratmap(self):
        """Projectivization (z^d f1(x/z, y/z) : z^d f2 : z^d)."""
        from .ratmap import normalize

        d = self.degree
        comps = []
        for c in self.components:
            terms = {}
            for (i, j), v in c.terms.items():
                terms[(i, j, d - i - j)] = v
            comps.append(HomPoly(terms, d))
        comps.append(HomPoly({(0, 0, d): SONE}, d))
        return normalize(tuple(comps))

    def __str__(self):
        return f"({self.components[0]}, {self.components[1]})"

    __repr__ = __str__


def parse_polyaut(text):
    """Parse `expr, expr` into a PolyAut (no invertibility check here)."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return PolyAut(
                (parse_poly(text[:i], cls="biv"), parse_poly(text[i + 1:], cls="biv"))
            )
    raise ValueError("automorphism needs two comma-separated components")


def aut_compose(f, g):
    """f after g."""
    g1, g2 = g.components
    return PolyAut((f.components[0].subst(g1, g2), f.components[1].subst(g1, g2)))


@dataclass(frozen=True)
class Factor:
    kind: str  # "affine" or "elementary"
    aut: PolyAut

    @property
    def degree(self):
        return self.aut.degree


@dataclass
class JungWord:
    factors: list  # alternating Factor list, product in order equals the source
    source: PolyAut = None

    def recompose(self):
        out = PolyAut.identity()
        for fac in self.factors:
            out = aut_compose(out, fac.aut)
        return out


def _linear_part(aut):
    """((a11, a12), (a21, a22)) of an affine map, plus the translation."""
    mat = []
    vec = []
    for c in aut.components:
        mat.append((c.terms.get((1, 0), SZERO), c.terms.get((0, 1), SZERO)))
        vec.append(c.terms.get((0, 0), SZERO))
    return mat, vec


def _affine_invertible(aut):
    mat, _vec = _linear_part(aut)
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    return bool(det)


def jung_decompose(f):
    """Alternating affine/elementary word recomposing exactly to f.

    Repeatedly cancels the leading form of the higher-degree component with
    a power of the lower one via a left-composed map (x - c*y^k, y)
    (swapping components first when needed).  Returns NOT_AUTOMORPHISM when
    no cancellation exists while the degree exceeds one.

    The word is exact by construction, so it is not recomposed: each step
    applies (x - c*y^k, y) or the swap and records its exact inverse,
    `_merge_factors` composes adjacent factors exactly, and the last factor
    passes `_affine_invertible`.
    """
    if f.degree > DEGREE_CAP:
        raise ValueError(f"component degree exceeds cap {DEGREE_CAP}")
    peeled = []  # left factors in application order: f = peeled[0] o ... o cur
    cur = f
    guard = 0
    while cur.degree > 1:
        guard += 1
        if guard > 4 * DEGREE_CAP:
            return NOT_AUTOMORPHISM
        p, q = cur.components
        if p.degree < q.degree:
            cur = PolyAut((q, p))
            peeled.append(Factor("affine", PolyAut.swap()))
            continue
        d1, d2 = p.degree, q.degree
        if d2 == 0:
            return NOT_AUTOMORPHISM
        if d1 % d2 != 0:
            return NOT_AUTOMORPHISM
        k = d1 // d2
        qk = q ** k
        # c from qk's lex-leading top monomial; the top forms must agree
        tp, tq = p.top_form(), qk.top_form()
        e = max(tq.terms)
        c = tp.terms.get(e, SZERO) / tq.terms[e]
        if tp != tq * c:
            return NOT_AUTOMORPHISM
        # cur' = (x - c*y^k, y) o cur; record the inverse (x + c*y^k, y)
        cur = PolyAut((p - qk * c, q))
        peeled.append(Factor("elementary", PolyAut((_X + _Y ** k * c, _Y))))
    if not _affine_invertible(cur):
        return NOT_AUTOMORPHISM
    peeled.append(Factor("affine", cur))
    return JungWord(factors=_merge_factors(peeled), source=f)


def _merge_factors(factors):
    """Compose adjacent factors of the same kind so the word alternates."""
    out = []
    for fac in factors:
        if out and out[-1].kind == fac.kind:
            out[-1] = Factor(fac.kind, aut_compose(out[-1].aut, fac.aut))
        else:
            out.append(Factor(fac.kind, fac.aut))
    return out


@dataclass
class HenonReport:
    is_henon: bool
    dyn_degree: int = 1


def henon_classify(f):
    """Friedland-Milnor trichotomy from the degrees of f and f o f.

    By Jung-van der Kulk, f = u o v o u^-1 with v cyclically reduced and
    the word reduced.  Degree is multiplicative on reduced words (Friedland
    & Milnor, Ergodic Theory Dynam. Systems 9, 1989), so when v is a Henon
    word, deg(f^n) = deg(u)^2 * deg(v)^n, and when v is affine or
    triangular, deg(f o f) <= deg(f).  So f is of Henon type exactly when
    deg(f o f) > deg(f), with dynamical degree deg(f o f) / deg(f).
    `jung_decompose` is the automorphism check.
    """
    if jung_decompose(f) is NOT_AUTOMORPHISM:
        return NOT_AUTOMORPHISM
    d1, d2 = f.degree, aut_compose(f, f).degree
    if d2 <= d1:
        return HenonReport(is_henon=False)
    return HenonReport(is_henon=True, dyn_degree=d2 // d1)


def aut_inverse(f):
    """Exact inverse via the factor word (invert factors, reverse order)."""
    word = jung_decompose(f)
    if word is NOT_AUTOMORPHISM:
        return NOT_AUTOMORPHISM
    out = PolyAut.identity()
    for fac in reversed(word.factors):
        out = aut_compose(out, _invert_factor(fac))
    return out


def _invert_factor(fac):
    if fac.kind == "elementary":
        p, _q = fac.aut.components
        rest = BiPoly({e: c for e, c in p.terms.items() if e != (1, 0)})
        lead = p.terms.get((1, 0), SZERO)
        if not lead:
            raise ValueError("degenerate elementary factor")
        return PolyAut(((_X - rest) * lead.inverse(), _Y))
    mat, vec = _linear_part(fac.aut)
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    inv = (
        (mat[1][1] / det, -mat[0][1] / det),
        (-mat[1][0] / det, mat[0][0] / det),
    )
    tx = -(inv[0][0] * vec[0] + inv[0][1] * vec[1])
    ty = -(inv[1][0] * vec[0] + inv[1][1] * vec[1])
    return PolyAut(
        (
            _X * inv[0][0] + _Y * inv[0][1] + BiPoly.coerce(tx),
            _X * inv[1][0] + _Y * inv[1][1] + BiPoly.coerce(ty),
        )
    )
