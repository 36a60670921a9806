"""Rational self-maps of the projective plane.

A RatMap is a coprime triple of homogeneous forms of a common degree, kept
as the one representative of its class up to scalars that
`poly._canonical` picks, so map equality compares components and maps
hash.  Besides composition, iteration (one step, `_next_iterate`, shared
by `iterate` and `dynamics.degree_sequence`) and ansatz-based inversion
this module carries the quadratic birationality criterion (det-jac splits
into contracted lines), the base points of a quadratic map read off its
contracted lines, the base-point multiplicity solver, and de Jonquieres
elements, each kept as one reduced polynomial matrix over a base Mobius
map.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .errors import NOT_CONTRACTED, NOT_FOUND, NOT_FULLY_SPLIT, ZeroMap
from .linalg import mat_inverse, nullspace
from .poly import (
    HomPoly,
    LinearForm,
    _canonical,
    _chart_images,
    _compose_on_lines,
    _field_of,
    _jacobian_lines,
    compose_reduce,
    factor_linear_cubic,
    field_roots,
    jacobian_det,
    parametrize_line,
    parse_poly,
    reduce_triple,
    restrict_to_line,
)
from .scalars import Scalar
from .unipoly import padd, pdegree, peval_mobius, pgcd, pmul, pneg, ppow, pquo_exact, pstrip

SZERO = Scalar(0)
SONE = Scalar(1)


class ProjPoint:
    """Point of P^2 with canonicalized coordinates (first nonzero is 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = [Scalar.coerce(c) for c in coords]
        if len(coords) != 3 or all(not c for c in coords):
            raise ValueError("projective point needs a nonzero triple")
        lead = next(c for c in coords if c)
        object.__setattr__(self, "coords", tuple(c / lead for c in coords))

    def __setattr__(self, *_):
        raise AttributeError("ProjPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    __repr__ = __str__


class RatMap:
    """Coprime homogeneous triple (f0 : f1 : f2), kept as the one
    representative of its projective class that `poly._canonical` picks:
    coefficients in Z[sqrt(d)] with content 1 and a positive rational
    lex-leading coefficient of the first nonzero component.  So maps that
    are equal up to a scalar have equal components, and equality and
    hashing compare them."""

    __slots__ = ("components", "removed_factor")

    def __init__(self, components, removed_factor=None):
        components = tuple(components)
        if len(components) != 3:
            raise ValueError("need exactly three components")
        if all(c.is_zero() for c in components):
            raise ZeroMap("all components vanish")
        degs = {c.degree for c in components if not c.is_zero()}
        if len(degs) != 1:
            raise ValueError("components must share a degree")
        object.__setattr__(self, "components", tuple(_canonical(components)))
        object.__setattr__(self, "removed_factor", removed_factor)

    def __setattr__(self, *_):
        raise AttributeError("RatMap is immutable")

    @property
    def degree(self):
        return next(c.degree for c in self.components if not c.is_zero())

    @staticmethod
    def identity():
        return RatMap((HomPoly.var("x"), HomPoly.var("y"), HomPoly.var("z")))

    @staticmethod
    def from_matrix(M):
        """Linear map from a 3x3 Scalar matrix (rows act on (x, y, z))."""
        vars_ = [HomPoly.var(v) for v in ("x", "y", "z")]
        comps = []
        for row in M:
            p = HomPoly.zero(1)
            for c, v in zip(row, vars_):
                p = p + v * Scalar.coerce(c)
            comps.append(p)
        return normalize(comps)

    def is_identity(self):
        return self.degree == 1 and self == RatMap.identity()

    def __eq__(self, other):
        """Projective equality: the canonical components are equal."""
        if not isinstance(other, RatMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def apply(self, pt):
        """Image of a ProjPoint, or None when pt is an indeterminacy point."""
        vals = [c.eval(pt.coords) for c in self.components]
        if all(not v for v in vals):
            return None
        return ProjPoint(vals)

    def coefficient_digits(self):
        """Total decimal digits of all numerators and denominators, for
        budget checks.  Counted from bit lengths, so it may overshoot by one
        digit per number; `len(str(n))` would be quadratic, and Python
        refuses it above 4300 digits."""
        return sum(v.digits() for c in self.components for v in c.terms.values())

    def __str__(self):
        return " : ".join(str(c) for c in self.components)

    __repr__ = __str__


def parse_ratmap(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("map needs three ':'-separated components")
    return normalize(tuple(parse_poly(p) for p in parts))


def normalize(raw):
    """Divide out the common factor of a homogeneous triple."""
    raw = tuple(raw)
    if all(c.is_zero() for c in raw):
        raise ZeroMap("all components vanish")
    comps, g = reduce_triple(raw)
    if g is None:
        return RatMap(raw)
    return RatMap(tuple(comps), removed_factor=g)


def compose(f, g):
    """f after g."""
    comps, common = compose_reduce(f.components, g.components)
    if all(c.is_zero() for c in comps):
        raise ZeroMap("composition degenerates; g maps into Ind f")
    return RatMap(tuple(comps), removed_factor=common)


def _next_iterate(f, cur, lines):
    """The iterate after cur = f^k, f^(k+1) = cur o f, with `lines` from
    `poly._jacobian_lines(f.components)`, computed once per orbit.

    With lines, cur o f comes from `poly._compose_on_lines`, with no gcd;
    without them, or when its packed ints would be too large, it is
    compose(f, cur).  Both give the same RatMap, since RatMaps are
    canonical; only the removed factor differs, and its degree does not."""
    if lines is not None:
        out = _compose_on_lines(cur.components, f.components, lines)
        if out is not None:
            comps, common = out
            return RatMap(comps, removed_factor=common)
    return compose(f, cur)


def iterate(f, k):
    """The k-th iterate of f, k >= 0; the identity for k = 0.

    Each step is `_next_iterate`, as in `dynamics.degree_sequence`, so the
    removed_factor of the result is the factor removed by the last cur o f
    (by the last f o cur where that step falls back to `compose`)."""
    if k < 0:
        raise ValueError(f"iterate count must be at least 0, got {k}")
    if k == 0:
        return RatMap.identity()
    out = f
    lines = _jacobian_lines(f.components) if k > 1 else None
    for _ in range(k - 1):
        out = _next_iterate(f, out, lines)
    return out


# -- inversion by linear ansatz -------------------------------------------

def _monomials(deg):
    out = []
    for i in range(deg, -1, -1):
        for j in range(deg - i, -1, -1):
            out.append((i, j, deg - i - j))
    return out


def inverse(f, target_degree):
    """Inverse of degree target_degree via the cross-product linear ansatz.

    Unknown triple g; the conditions (g o f)_i * x_j - (g o f)_j * x_i = 0
    are linear in g's coefficients.  Returns a RatMap or NOT_FOUND.

    The images of the ansatz monomials under f come from `_chart_images` as
    ints (int pairs over Q(sqrt(d))) in the z = 1 chart, all scaled by one
    constant, which leaves the solutions unchanged.  Multiplying by x_j
    shifts their exponents, and `nullspace` solves the system on ints.
    Every candidate is certified by composing it with f both ways.
    """
    d = target_degree
    if d < 1:
        raise ValueError("inverse degree must be at least 1")
    mons = _monomials(d)
    nmon = len(mons)
    ncols = 3 * nmon
    field_d, imgs = _chart_images(mons, f.components)
    if field_d:
        zero = (0, 0)
        negs = [{e: (-a, -b) for e, (a, b) in img.items()} for img in imgs]
    else:
        zero = 0
        negs = [{e: -c for e, c in img.items()} for img in imgs]
    unit = ((1, 0), (0, 1), (0, 0))  # x, y, z in the chart (i, j)
    rows = {}
    for block, (ci, cj) in enumerate(((0, 1), (0, 2), (1, 2))):
        for k in range(nmon):
            # + image_k * x_cj in column (ci, k), - image_k * x_ci in column (cj, k)
            for col, (si, sj), img in ((ci * nmon + k, unit[cj], imgs[k]),
                                       (cj * nmon + k, unit[ci], negs[k])):
                for (i, j), c in img.items():
                    key = (block, i + si, j + sj)
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = [zero] * ncols
                    row[col] = c
    basis = nullspace(list(rows.values()), ncols, field_d)
    candidates = list(basis)
    if len(basis) > 1:
        candidates.append([sum(col) for col in zip(*basis)])
    ident = RatMap.identity()
    for vec in candidates:
        comps = [HomPoly({m: vec[c * nmon + k] for k, m in enumerate(mons)}, d)
                 for c in range(3)]
        try:
            g = normalize(tuple(comps))
            if compose(g, f) == ident and compose(f, g) == ident:
                return g
        except ZeroMap:
            continue
    return NOT_FOUND


# -- contracted lines ------------------------------------------------------

def _on_line(f, L):
    """(image, g, tpow) for the line {L = 0}: its constant image point, or
    NOT_CONTRACTED; the monic gcd g of the restrictions of f's components
    as polynomials in u = s/t; and the power of t they share, nonzero when
    (s : t) = (1 : 0) is a common zero."""
    polys = [pstrip(restrict_to_line(c, L)) for c in f.components]
    if all(not p for p in polys):
        raise ValueError("line is contained in the indeterminacy locus")
    n = f.degree
    g = []
    for p in polys:
        g = pgcd(g, p)
    tpow = min(n - pdegree(p) for p in polys if p)
    coords = []
    for p in polys:
        if not p:
            coords.append(SZERO)
            continue
        q = pquo_exact(p, g)
        if pdegree(q) > 0 or (n - pdegree(p)) != tpow:
            return NOT_CONTRACTED, g, tpow
        coords.append(q[0])
    return ProjPoint(coords), g, tpow


def is_contracted_line(f, L):
    """Constant image point of the line {L = 0}, or NOT_CONTRACTED."""
    if isinstance(L, HomPoly):
        L = LinearForm.from_poly(L)
    return _on_line(f, L)[0]


# -- quadratic classification ---------------------------------------------

@dataclass
class QuadClass:
    stratum: str
    det_jac_lines: list = field(default_factory=list)
    contraction_targets: list = field(default_factory=list)
    ind_points: list = field(default_factory=list)
    field_obstructed: bool = False


def quadratic_classify(f):
    """Stratify a quadratic map per the three-contracted-lines criterion."""
    if f.removed_factor is not None and f.removed_factor.degree >= 1 and f.degree == 1:
        return QuadClass("Sigma0")
    if f.degree != 2:
        return QuadClass("NotQuadratic")
    J = jacobian_det(f.components)
    if J.is_zero():
        return QuadClass("NotBirational")
    factors = factor_linear_cubic(J)
    if factors is NOT_FULLY_SPLIT:
        return QuadClass("FieldObstruction", field_obstructed=True)
    lines = [lf for lf, _m in factors]
    on_lines = [_on_line(f, lf) for lf in lines]
    targets = [t for t, _g, _tpow in on_lines]
    if any(t is NOT_CONTRACTED for t in targets):
        return QuadClass("NotBirational", det_jac_lines=lines)
    distinct = len(lines)
    if distinct == 3:
        M = [list(lf.coeffs) for lf in lines]
        if mat_inverse(M) is None:
            return QuadClass("NotBirational", det_jac_lines=lines,
                             contraction_targets=targets)
        stratum = "Sigma3"
    elif distinct == 2:
        stratum = "Sigma2"
    else:
        stratum = "Sigma1"
    pts, obstructed = _base_points(f, lines, on_lines)
    return QuadClass(stratum, det_jac_lines=lines, contraction_targets=targets,
                     ind_points=pts, field_obstructed=obstructed)


def indeterminacy_points_quadratic(f):
    """(points, obstructed) for a quadratic birational map: its proper base
    points, from `quadratic_classify`, and whether a restriction to a
    contracted line failed to split over the field.  A map whose Jacobian
    does not split into lines over its field gives ([], True); any map that
    is not quadratic and birational raises ValueError."""
    qc = quadratic_classify(f)
    if qc.stratum in ("Sigma0", "NotQuadratic", "NotBirational"):
        raise ValueError(f"not a quadratic birational map: {qc.stratum}")
    return qc.ind_points, qc.field_obstructed


def _base_points(f, lines, on_lines):
    """(points, obstructed): the common zeros of f's components on the
    given lines, from their `_on_line` data.  On each line they are the
    roots of the gcd of the three restrictions, and (s : t) = (1 : 0) when
    every restriction loses degree; obstructed when a gcd does not split
    over the field."""
    field_d = _field_of(f.components)
    pts, obstructed = [], False
    for L, (_t, g, tpow) in zip(lines, on_lines):
        roots, fully = field_roots(g, field_d)
        obstructed = obstructed or not fully
        st = [(r, SONE) for r in roots] + ([(SONE, SZERO)] if tpow else [])
        param = parametrize_line(L)
        pts += [ProjPoint([p * s + q * t for p, q in param]) for s, t in st]
    return list(dict.fromkeys(pts)), obstructed


# -- Noether multiplicity profiles ----------------------------------------

@dataclass(frozen=True)
class MultiplicityProfile:
    degree: int
    multiplicities: tuple

    def is_consistent(self):
        nu = self.degree
        m = self.multiplicities
        return sum(m) == 3 * (nu - 1) and sum(v * v for v in m) == nu * nu - 1


def noether_solve(nu, constraint=None):
    """All multisets of base-point multiplicities compatible with degree nu.

    Solves sum(m) = 3(nu-1), sum(m^2) = nu^2 - 1 with 1 <= m_i <= nu - 1,
    m_1 >= m_2 >= ...
    """
    if nu < 2:
        raise ValueError("degree must be at least 2")
    target_s = 3 * (nu - 1)
    target_q = nu * nu - 1
    out = []

    def rec(prefix, max_m, s, q):
        if s == 0 and q == 0:
            out.append(MultiplicityProfile(nu, tuple(prefix)))
            return
        if s <= 0 or q <= 0:
            return
        for m in range(min(max_m, s), 0, -1):
            if m * m > q:
                continue
            # remaining r values each at most m: need s - m <= m * (q - m^2)?
            rec(prefix + [m], m, s - m, q - m * m)

    rec([], nu - 1, target_s, target_q)
    if constraint is not None:
        out = [p for p in out if p.multiplicities and p.multiplicities[0] == constraint]
    return out


# -- de Jonquieres elements ------------------------------------------------

def _ypoly(v):
    """An entry of a vertical matrix, an int, Fraction or Scalar or a list or
    tuple of them (constant term first), as a list of Scalars."""
    return pstrip([Scalar.coerce(c) for c in (v if isinstance(v, (list, tuple)) else [v])])


class JonqElement:
    """The fibration-preserving map (x, y) -> ((a x + b)/(c x + d),
    (al y + be)/(ga y + de)) with a, b, c, d polynomials in y: the vertical
    matrix ((a, b), (c, d)) in PGL2(C(y)) and the base ((al, be), (ga, de))
    in PGL2(C).  Every element of J has polynomial entries up to a scalar.

    Each element is kept as the one representative of its class: the
    vertical entries, tuples of Scalars constant term first, are divided by
    their monic gcd and then by the leading coefficient of the first
    nonzero one of a, b, c, d, and the base by its first nonzero entry.  So
    elements that are equal as maps have equal fields, and equality and
    hashing compare them."""

    __slots__ = ("vertical", "base")

    def __init__(self, vertical, base):
        a, b, c, d = (_ypoly(v) for row in vertical for v in row)
        al, be, ga, de = (Scalar.coerce(v) for row in base for v in row)
        if not padd(pmul(a, d), pneg(pmul(b, c))):
            raise ValueError("vertical matrix is singular")
        if not (al * de - be * ga):
            raise ValueError("base matrix is singular")
        g = []
        for p in (a, b, c, d):
            g = pgcd(g, p)
        ents = [pquo_exact(p, g) for p in (a, b, c, d)]
        lead = next(p for p in ents if p)[-1]
        a, b, c, d = (tuple(v / lead for v in p) for p in ents)
        first = next(v for v in (al, be, ga, de) if v)
        al, be, ga, de = (v / first for v in (al, be, ga, de))
        object.__setattr__(self, "vertical", ((a, b), (c, d)))
        object.__setattr__(self, "base", ((al, be), (ga, de)))

    def __setattr__(self, *_):
        raise AttributeError("JonqElement is immutable")

    @staticmethod
    def identity():
        return JonqElement(((1, 0), (0, 1)), ((1, 0), (0, 1)))

    def __eq__(self, other):
        """Equality as maps: the representatives are equal."""
        if not isinstance(other, JonqElement):
            return NotImplemented
        return self.vertical == other.vertical and self.base == other.base

    def __hash__(self):
        return hash((self.vertical, self.base))


def jonq_to_ratmap(j):
    """Projective model, the entries homogenized at their largest degree;
    the y/z fibration is preserved by construction."""
    (a, b), (c, d) = j.vertical
    m = max(len(p) for p in (a, b, c, d)) - 1
    PA, PB, PC, PD = (HomPoly({(0, k, m - k): v for k, v in enumerate(p) if v}, m)
                      for p in (a, b, c, d))
    X, Y, Z = (HomPoly.var(v) for v in ("x", "y", "z"))
    N1 = PA * X + PB * Z
    M1 = PC * X + PD * Z
    (al, be), (ga, de) = j.base
    N2 = Y * al + Z * be
    M2 = Y * ga + Z * de
    return normalize((N1 * M2, N2 * M1, M1 * M2))


def _at_base(A, base):
    """The vertical matrix A at y -> (al y + be)/(ga y + de): each entry p
    becomes p((al y + be)/(ga y + de)) * (ga y + de)^m, with m the largest
    entry degree, so a polynomial; one factor for all four entries leaves
    the class in PGL2(C(y)) unchanged."""
    (al, be), (ga, de) = base
    num, den = pstrip([be, al]), pstrip([de, ga])
    m = max(len(p) for row in A for p in row) - 1
    return tuple(tuple(pmul(peval_mobius(p, num, den), ppow(den, m - pdegree(p))) if p else []
                       for p in row) for row in A)


def _mul2(A, B, mul, add):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h))),
            (add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h))))


def jonq_compose(j1, j2):
    """Group law matching ratmap composition: to_ratmap(j1 o j2) == f1 o f2."""
    vert = _mul2(_at_base(j1.vertical, j2.base), j2.vertical, pmul, padd)
    base = _mul2(j1.base, j2.base, operator.mul, operator.add)
    return JonqElement(vert, base)


def jonq_inverse(j):
    """The inverse by adjugates, which differ from the inverses by scalars."""
    (al, be), (ga, de) = j.base
    base_inv = ((de, -be), (-ga, al))
    (a, b), (c, d) = _at_base(j.vertical, base_inv)
    return JonqElement(((d, pneg(b)), (pneg(c), a)), base_inv)
