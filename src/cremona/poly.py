"""Sparse polynomials over Scalar: homogeneous ternary forms and bivariate
affine polynomials, with gcd, substitution, Jacobians and splitting of low
degree forms into linear factors.

`HomPoly` and `BiPoly` are thin subclasses of one core, `_Sparse`: a dict
from exponent tuples to nonzero Scalars with one copy of equality,
hashing, + - * ** `mul_ground`, evaluation and printing.  Arithmetic builds
its results with the trusted `_clean`, dropping cancelled terms as they
arise; only outside callers go through the validating constructor.
Maps need no scalar-ratio test, since `_canonical` gives every `RatMap`
one representative of its class.

Sums and `mul_ground` stay in Scalar arithmetic.  Every product and
substitution of HomPolys and BiPolys runs on ints, in
`_substitute_on_chart`: the operands scale by their least common
denominator to PairPolys (`_chart`: the z = 1 chart of a HomPoly, the terms
of a BiPoly), each monomial of the substituted polynomial is built once, as
one product of a lower monomial with an image, and the result is built
once, by `_clean`, over the denominator of that scaling.  It serves `*`
(x*y substituted with the two factors), `**`, `substitute`, `BiPoly.subst`
(and with it `polyaut.aut_compose` and `jung_decompose`),
`restrict_to_line`, the search for linear factors of `factor_linear_cubic`
on BiPolys in (t, gamma) for a pencil of lines, the ansatz images of
`ratmap.inverse` (`_chart_images`), and `compose_reduce` over Q(sqrt(d)).

Composition, gcd and exact division share one layer in the chart z = 1:
`_chart` scales forms by their least common denominator to dicts of int
pairs (A, B) for A + B*sqrt(d), with B = 0 over Q (d is a squarefree int,
see `scalars`), and `_from_chart` rehomogenizes one divided by a scale.
One gcd kernel, the modular gcd of `pairpoly` certified by trial
division, returns the monic gcd and the quotients of its inputs by it as
charts on both fields.  `_divide_out` turns its answer into components and
a removed factor for `compose_reduce`, `reduce_triple` and `poly_gcd`, and
`divide_exact` is `pairpoly`'s trial division on two charts.
`compose_reduce` keeps no scale: its components are right up to a
constant, and `_canonical`, on the same charts, scales forms to content 1
in Z[sqrt(d)] with a positive rational lex-leading coefficient.
`parse_poly` reads the input grammar with `ast` and evaluates it without
Python's `eval`.

Every composition over Q substitutes on Kronecker-packed ints
(`_packed_compose`, shared by `compose_reduce` and the iteration step
`_compose_on_lines`): a chart is the int sum c * 2^(k*(i + width*j)) with
width = deg c * deg f + 1, and k exceeds the bit length of
|c|_1 * max_t |f_t|_1 ^ deg c, which bounds every coefficient of c(f0, f1,
f2), so each slot unpacks as one balanced digit.  A product by an f_t is a
sum of a few shifted, scaled copies of the int, never a product of two big
ints.  When the cached powers of an f_t would pass _PACK_BITS, composition
falls back to `_substitute_on_chart`.

Iteration over Q takes no gcd.  `_compose_on_lines` computes cur o f, and
the common factor it strips is known in advance: when cur and f are
coprime and f is dominant, a curve on which the three components of
cur(f0, f1, f2) vanish is contracted by f into the finitely many base
points of cur, so it lies in det Jac(f) = 0.  When det Jac(f) is a
product of lines over Q (`_jacobian_lines`, once per orbit), each line
off z = 0 is peeled off every component by exact synthetic division
(`_divide_by_line`: a primitive line that divides over Q divides over Z),
and the power of z is read off the drop in chart degree.
`ratmap._next_iterate` falls back to `compose_reduce` over Q(sqrt(d)),
when det Jac(f) = 0, when f's components share a factor, when det Jac(f)
does not split into lines over Q, and when the packed ints would pass
_PACK_BITS.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction

from .errors import (
    DegreeMismatch,
    IncompatibleField,
    InexactDivision,
    NOT_FULLY_SPLIT,
)
from .pairpoly import PairPoly, _divide, _monic, gcd_cofactors
from .scalars import Scalar, _radical
from .unipoly import pdegree, pdivmod, pgcd, pstrip

SZERO = Scalar(0)
SONE = Scalar(1)
_PRODUCT = {(1, 1): SONE}  # p * q is x*y substituted with (p, q)


def _accumulate(terms, e, c):
    """terms[e] += c for a nonzero c, dropping the term when it cancels."""
    s = terms.get(e)
    s = c if s is None else s + c
    if s:
        terms[e] = s
    else:
        del terms[e]


class _Sparse:
    """Polynomial over Scalar in the variables VARS: terms maps exponent
    tuples, one entry per variable, to nonzero coefficients.

    The one copy of the arithmetic, evaluation and printing of HomPoly and
    BiPoly.  Values are immutable.  Results of arithmetic are built by the
    trusted `_clean`, with cancelled terms dropped as they arise; the
    constructor validates and is for every outside caller.  `degree` is set
    by the subclass's `_degree_of`: the nominal degree of a HomPoly, the
    total degree of a BiPoly.
    """

    __slots__ = ("terms", "degree")
    VARS = ()

    def __init__(self, terms, degree=None):
        clean = {}
        for exps, c in terms.items():
            c = Scalar.coerce(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.VARS) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            _accumulate(clean, exps, c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree", self._degree_of(clean, degree))

    @classmethod
    def _clean(cls, terms, degree):
        """The polynomial on terms that are already clean: nonzero Scalars
        on int tuples of the right length (for a HomPoly, all summing to
        degree).  Skips the checks of the constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "degree", degree)
        return p

    @classmethod
    def _operand(cls, other):
        """other as a second operand of + - *, or NotImplemented."""
        return other if type(other) is cls else NotImplemented

    @classmethod
    def var(cls, name):
        i = cls.VARS.index(name)
        return cls({tuple(int(a == i) for a in range(len(cls.VARS))): SONE})

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(out, e, c)
        return self._clean(out, self.degree if self.terms else other.degree)

    def __neg__(self):
        return self._clean({e: -c for e, c in self.terms.items()}, self.degree)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.mul_ground(other)
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _substitute(_PRODUCT, (self, other), type(self), self.degree + other.degree)

    __rmul__ = __mul__

    def mul_ground(self, c):
        c = Scalar.coerce(c)
        terms = {e: v * c for e, v in self.terms.items()} if c else {}
        return self._clean(terms, self.degree)

    def __pow__(self, k):
        """self ** k by k - 1 products with self on its chart: in two
        variables, repeated multiplication by the small base costs less than
        repeated squaring."""
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        return _substitute({(k,): SONE}, (self,), type(self), self.degree * k)

    def eval(self, point):
        """Exact value at a point given by one Scalar per variable."""
        acc = SZERO
        for e, c in self.terms.items():
            for v, k in zip(point, e):
                if k:
                    c = c * v ** k
            acc = acc + c
        return acc

    def __str__(self):
        """Terms by descending (total degree, exponents); an integer
        coefficient is written bare, any other in parentheses."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mon = "*".join(f"{v}^{p}" if p > 1 else v for v, p in zip(self.VARS, e) if p)
            if not mon:
                parts.append(f"{c}")
            elif c == SONE:
                parts.append(mon)
            elif c == -SONE:
                parts.append(f"-{mon}")
            elif c.is_rational() and c.a.denominator == 1:
                parts.append(f"{c}*{mon}")
            else:
                parts.append(f"({c})*{mon}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class HomPoly(_Sparse):
    """Homogeneous polynomial in x, y, z with Scalar coefficients.

    terms maps exponent triples (i, j, k) with i+j+k == degree to nonzero
    coefficients.  The zero polynomial keeps a nominal degree so that
    addition stays total on homogeneous arguments.
    """

    __slots__ = ()
    VARS = ("x", "y", "z")

    @staticmethod
    def _degree_of(terms, degree):
        degs = {sum(e) for e in terms}
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else int(degree or 0)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(degree=0):
        return HomPoly({}, degree)

    @staticmethod
    def monomial(coef, exps):
        return HomPoly({tuple(exps): Scalar.coerce(coef)})

    @staticmethod
    def constant(c):
        return HomPoly({(0, 0, 0): Scalar.coerce(c)})

    # -- basics -----------------------------------------------------------

    def __add__(self, other):
        if type(other) is HomPoly and self.terms and other.terms \
                and self.degree != other.degree:
            raise DegreeMismatch(f"add degree {self.degree} to {other.degree}")
        return super().__add__(other)

    def leading(self):
        """Leading (exponents, coefficient) in graded-lex order."""
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self):
        if not self.terms:
            return self
        _, c = self.leading()
        return self * c.inverse()

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), SZERO)

    def min_exponent(self, axis):
        return min((e[axis] for e in self.terms), default=0)

    def shift_down(self, axis, amount):
        """Divide by variable**amount (must divide exactly)."""
        if amount == 0:
            return self
        out = {}
        for e, c in self.terms.items():
            if e[axis] < amount:
                raise ArithmeticError("variable power does not divide")
            ee = list(e)
            ee[axis] -= amount
            out[tuple(ee)] = c
        return HomPoly(out, self.degree - amount)

    def field_disc(self):
        return _field_of([self])


class BiPoly(_Sparse):
    """Polynomial in x, y over Scalar, not necessarily homogeneous; its
    degree is the total degree (0 for the zero polynomial)."""

    __slots__ = ()
    VARS = ("x", "y")

    @staticmethod
    def _degree_of(terms, _degree=None):
        return max((i + j for i, j in terms), default=0)

    @classmethod
    def _clean(cls, terms, _degree=None):
        """The degree is read off the terms: the nominal degree that the
        shared arithmetic passes is wrong when a sum cancels its top form."""
        return super()._clean(terms, cls._degree_of(terms))

    @staticmethod
    def coerce(v):
        if isinstance(v, BiPoly):
            return v
        if isinstance(v, (int, Scalar, Fraction)):
            return BiPoly({(0, 0): Scalar.coerce(v)})
        raise TypeError(f"cannot coerce {v!r} to BiPoly")

    _operand = coerce
    __radd__ = _Sparse.__add__

    def __rsub__(self, other):
        return BiPoly.coerce(other) + (-self)

    def subst(self, fx, fy):
        """self(fx, fy) for BiPoly arguments."""
        return _substitute(self.terms, (fx, fy), BiPoly, 0)

    def top_form(self):
        """Leading homogeneous part, as a BiPoly."""
        d = self.degree
        return BiPoly._clean({e: c for e, c in self.terms.items() if e[0] + e[1] == d})

    def eval(self, x, y):
        return super().eval((x, y))


def substitute(p, images):
    """p(f0, f1, f2) for homogeneous images of a common degree."""
    f0, f1, f2 = images
    if not (f0.degree == f1.degree == f2.degree):
        raise DegreeMismatch("images must share a degree")
    return _substitute(p.terms, images, HomPoly, p.degree * f0.degree)


def jacobian_det(triple):
    """Determinant of the Jacobian matrix of a homogeneous triple."""
    def partial(p, axis):
        out = {}
        for e, c in p.terms.items():
            if e[axis] == 0:
                continue
            ee = list(e)
            ee[axis] -= 1
            out[tuple(ee)] = c * e[axis]
        return HomPoly(out, max(p.degree - 1, 0))

    rows = [[partial(f, a) for a in range(3)] for f in triple]
    det = HomPoly.zero(3 * max(triple[0].degree - 1, 0))
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        prod = rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]]
        det = det + prod * sign
    return det


def divide_exact(p, q):
    """Quotient p/q when q divides p exactly, else None.

    The z = 1 charts divide by `pairpoly._divide`, the trial division that
    certifies the modular gcd, on both fields; the chart quotient is p/q
    when z divides p at least as often as it divides q.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return HomPoly.zero(max(p.degree - q.degree, 0))
    if p.min_exponent(2) < q.min_exponent(2):
        return None
    field_d = _field_of([p, q])
    _den, (hp, hq) = _chart([p, q])  # hp / hq = p / q
    a, b = hq[max(hq)]
    quot = _divide(hp, _monic(hq, field_d), field_d)  # hp * (a + b*sqrt(d)) / hq
    if quot is None:
        return None
    t, s = quot
    # 1 / (a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - d*b^2)
    return _from_chart(HomPoly, PairPoly(t, field_d).mul_ground((a, -b)).terms,
                       s * (a * a - field_d * b * b), field_d, p.degree - q.degree)


# -- the z = 1 chart on int pairs ---------------------------------------------

def _field_of(polys, termss=()):
    """The d of Q(sqrt(d)) of the irrational coefficients of the polys and
    of the term dicts termss, 0 over Q; IncompatibleField when they lie in
    two fields."""
    ds = {c.d for terms in (*(p.terms for p in polys), *termss)
          for c in terms.values()} - {0}
    if len(ds) > 1:
        raise IncompatibleField(" vs ".join(f"sqrt({d})" for d in sorted(ds)))
    return ds.pop() if ds else 0


def _den(terms):
    """The least common denominator of every a and b in the coefficients
    a + b*sqrt(d) of a term dict."""
    den = 1
    for c in terms.values():
        den = math.lcm(den, c.a.denominator, c.b.denominator)
    return den


def _chart(polys):
    """(den, [chart of den * p for each p]): den is the least common
    denominator of the coefficients of every p, and a chart is the dict
    {(i, j): (A, B)} of ints standing for A + B*sqrt(d), with B = 0 over Q:
    the z = 1 chart of a HomPoly, the terms of a BiPoly."""
    den = math.lcm(*(_den(p.terms) for p in polys))
    return den, [{e[:2]: (c.a.numerator * (den // c.a.denominator),
                          c.b.numerator * (den // c.b.denominator))
                  for e, c in p.terms.items()} for p in polys]


def _from_chart(cls, terms, den, field_d, degree):
    """The cls whose chart is terms / den: a HomPoly of the given degree,
    rehomogenized, or a BiPoly."""
    if cls is HomPoly:
        terms = {(i, j, degree - i - j): c for (i, j), c in terms.items()}
    return cls._clean({e: Scalar(Fraction(a, den), Fraction(b, den), field_d)
                       for e, (a, b) in terms.items()}, degree)


def _canonical(forms):
    """The one representative of the projective class of the forms.

    On their joint z = 1 chart (`_chart`), the forms are multiplied by the
    conjugate a - b*sqrt(d) of the lex-leading coefficient a + b*sqrt(d) of
    the first nonzero form when b != 0, which makes that coefficient
    rational, and then divided by the joint gcd of every A and B of the
    A + B*sqrt(d), signed so that it ends up positive.  The result has
    coefficients in Z[sqrt(d)] with content 1; two proportional lists of
    forms give equal results.  Forms that are canonical already come back
    as they are.
    """
    field_d = _field_of(forms)
    den, charts = _chart(forms)
    lead = next(t for t in charts if t)
    a, b = lead[max(lead)]
    if b:
        charts = [PairPoly(t, field_d).mul_ground((a, -b)).terms for t in charts]
        a = a * a - field_d * b * b
    g = math.gcd(*(v for t in charts for pair in t.values() for v in pair))
    if a < 0:
        g = -g
    if den == 1 and g == 1 and not b:
        return list(forms)
    return [_from_chart(HomPoly, {k: (u // g, v // g) for k, (u, v) in t.items()},
                        1, field_d, p.degree) for t, p in zip(charts, forms)]


def _total_degree(terms):
    return max(i + j for i, j in terms)


def _divide_out(charts, dens, field_d, degrees):
    """(components, factor) of nonzero forms of the given degrees from their
    charts, each scaled by its den.

    The gcd kernel is the certified modular gcd of `pairpoly`, on both
    fields.  It gives the monic gcd g / gden and the quotient q / s of each
    chart by it, so a component is q / (s * den), rehomogenized.  The
    factor is g / gden times the greatest power of z dividing every form,
    or None when it is 1.  Its degree is read off the quotients: a form of
    degree n whose quotient has chart degree m leaves n - m to g and z, the
    least over the forms.
    """
    (g, gden), quotients = gcd_cofactors(charts, field_d)
    gdeg = min(n - _total_degree(q) for (q, _s), n in zip(quotients, degrees))
    comps = [_from_chart(HomPoly, q, s * den, field_d, n - gdeg)
             for (q, s), den, n in zip(quotients, dens, degrees)]
    return comps, (_from_chart(HomPoly, g, gden, field_d, gdeg) if gdeg else None)


def _reduce(forms):
    """`_divide_out` for nonzero forms on their own charts."""
    den, charts = _chart(forms)
    return _divide_out(charts, [den] * len(forms), _field_of(forms),
                       [p.degree for p in forms])


def reduce_triple(raws):
    """Divide a homogeneous triple by its common factor.

    Returns (components, common_factor) where the factor is None when the
    triple was already coprime.
    """
    raws = list(raws)
    if not any(raws):
        raise ValueError("reduce_triple of three zero forms")
    comps, g = _reduce([p for p in raws if p])
    if g is None:
        return raws, None
    it = iter(comps)
    return [next(it) if p else HomPoly.zero(comps[0].degree) for p in raws], g


def poly_gcd(p, q):
    """Monic greatest common divisor of two homogeneous ternary forms."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    g = _reduce([p, q])[1]
    return HomPoly.constant(1) if g is None else g


def _substitute_on_chart(fs, gs):
    """(field_d, [(h, s) for each f in fs]): h is the chart (`_chart`) of
    s * f(g0, g1, ...) for a term dict f over Scalar whose exponent tuples
    have one entry per g, and s a positive int.  The gs are HomPolys or
    BiPolys; every product and substitution of them runs here, on ints.

    The gs scale by their least common denominator den to PairPolys.  Each
    f scales by its own, fden, and each term of exponents e by
    den^(top - |e|) for f's total degree top, so that s = fden * den^top.
    Each distinct monomial in the support of the fs is built once, as one
    product of a lower monomial (cached for this call) with an image,
    walking down to the nearest cached one with no recursion, so a high
    power is no deeper than a low one.  IncompatibleField when the
    coefficients lie in two fields.
    """
    field_d = _field_of(gs, fs)
    den, charts = _chart(gs)
    images = [PairPoly(t, field_d) for t in charts]
    n = len(images)
    monos = {(0,) * n: PairPoly({(0, 0): (1, 0)}, field_d)}
    for t, g in enumerate(images):
        monos[tuple(int(a == t) for a in range(n))] = g

    def monomial(e):
        chain = []  # the monomials to build, each from the next one down
        while e not in monos:
            t = next(a for a in range(n) if e[a])
            chain.append((e, t))
            e = e[:t] + (e[t] - 1,) + e[t + 1:]
        m = monos[e]
        for e, t in reversed(chain):
            m = monos[e] = m * images[t]
        return m

    out = []
    for f in fs:
        top = max(map(sum, f), default=0)
        fden = _den(f)
        acc = PairPoly({}, field_d)
        for e, c in f.items():
            m = fden * den ** (top - sum(e))
            acc = acc + monomial(e).mul_ground((c.a.numerator * (m // c.a.denominator),
                                                c.b.numerator * (m // c.b.denominator)))
        out.append((acc.terms, fden * den ** top))
    return field_d, out


def _substitute(f, gs, cls, degree):
    """f(g0, g1, ...) as the cls of the given degree (ignored for a BiPoly),
    built once from `_substitute_on_chart`."""
    field_d, ((h, s),) = _substitute_on_chart([f], gs)
    return _from_chart(cls, h, s, field_d, degree)


def _chart_images(mons, comps):
    """(field_d, images): images[k] holds the z = 1 chart terms of
    s * mons[k](comps) for exponent triples mons[k] and one nonzero
    constant s shared by every k: {(i, j): int} over Q, {(i, j): (A, B)}
    for A + B*sqrt(d) over Q(sqrt(d))."""
    field_d, hs = _substitute_on_chart([{m: SONE} for m in mons], comps)
    if field_d:
        return field_d, [h for h, _s in hs]
    return 0, [{e: a for e, (a, _b) in h.items()} for h, _s in hs]


def compose_reduce(fcomps, gcomps):
    """Substitute the triple g into each component of f and strip the
    common factor.  Returns (components, common_factor_or_None).

    Both triples go to their z = 1 charts on ints (nothing is lost, since
    everything is homogeneous), and f's charts are substituted with g's:
    over Q on Kronecker-packed ints (`_packed_compose`), and over
    Q(sqrt(d)), or when the packed ints would pass _PACK_BITS, on the int
    pairs of `_substitute_on_chart`.  `_divide_out` takes the common factor
    and the components from the certified modular gcd of `pairpoly`, which
    also returns the quotients.  The common factor is the gcd made monic in
    lex order with x > y, and the components are the h / g up to one
    constant factor, which `RatMap` replaces by its canonical one
    (`_canonical`).
    """
    if all(len(p.terms) == 1 for p in fcomps) and \
            all(len(p.terms) == 1 for p in gcomps):
        return _compose_monomials(fcomps, gcomps)
    field_d = _field_of([*fcomps, *gcomps])
    packed = None if field_d else _packed_compose(fcomps, gcomps)
    if packed is None:
        field_d, hs = _substitute_on_chart([p.terms for p in fcomps], gcomps)
        top = next(p.degree for p in fcomps if p) * next(p.degree for p in gcomps if p)
    else:
        top, rows = packed
        hs = [({(i, j): (v, 0) for j, row in enumerate(r) for i, v in enumerate(row) if v}, 1)
              for r in rows]
    nonzero = [(h, s) for h, s in hs if h]
    if not nonzero:
        return [HomPoly.zero(0)] * 3, None
    comps, factor = _divide_out([h for h, _s in nonzero], [s for _h, s in nonzero],
                                field_d, [top] * len(nonzero))
    it = iter(comps)
    return [next(it) if h else HomPoly.zero(comps[0].degree) for h, _s in hs], factor


def _compose_monomials(fcomps, gcomps):
    """Monomial triples compose by exponent arithmetic; the common factor is
    the componentwise-minimum monomial."""
    ge = []
    gc = []
    for p in gcomps:
        (e, c), = p.terms.items()
        ge.append(e)
        gc.append(c)
    out = []
    for p in fcomps:
        (e, c), = p.terms.items()
        exps = tuple(
            sum(e[t] * ge[t][axis] for t in range(3)) for axis in range(3)
        )
        coef = c
        for t in range(3):
            if e[t]:
                coef = coef * gc[t] ** e[t]
        out.append((exps, coef))
    mins = tuple(min(o[0][axis] for o in out) for axis in range(3))
    if not any(mins):
        return [HomPoly.monomial(c, e) for e, c in out], None
    comps = [
        HomPoly.monomial(c, tuple(e[a] - mins[a] for a in range(3)))
        for e, c in out
    ]
    return comps, HomPoly.monomial(SONE, mins)


# -- cur o f on packed ints, stripped by the lines of det Jac(f) ----------------

_PACK_BITS = 1 << 30  # 128 MB of cached powers of an f_t in `_packed_substitute`


def _jacobian_lines(fcomps):
    """The lines of det Jac(f) as primitive int triples (a, b, c) for
    a*x + b*y + c*z, or None when `_compose_on_lines` does not apply: f not
    over Q, det Jac(f) = 0, components sharing a factor, or det Jac(f) not a
    product of lines over Q."""
    if _field_of(fcomps):
        return None
    J = jacobian_det(fcomps)
    if J.is_zero() or reduce_triple(fcomps)[1] is not None:
        return None
    factors = factor_linear_cubic(J)
    if factors is NOT_FULLY_SPLIT:
        return None
    lines = []
    for lf, _m in factors:
        den = math.lcm(*(c.a.denominator for c in lf.coeffs))
        ints = [int(c.a * den) for c in lf.coeffs]
        g = math.gcd(*ints)
        lines.append(tuple(v // g for v in ints))
    return lines


def _times(P, shifts):
    """The packed P times a chart given as (shift, coefficient) pairs: a sum
    of shifted, scaled copies of P, never a product of two big ints."""
    out = 0
    for s, c in shifts:
        t = P << s if s else P
        if c == 1:
            out += t
        elif c == -1:
            out -= t
        else:
            out += c * t
    return out


def _unpack(P, k, width, top):
    """rows[j][i], the coefficient of x^i y^j, of the chart of total degree
    <= top packed in P with slot i + width*j of k bits (k a multiple of 8),
    each slot read as a balanced digit in [-2^(k-1), 2^(k-1)).  Each row
    is a list without trailing zeros, and there are top + 1 of them."""
    kb = k // 8
    nslots = width * top + 1
    buf = memoryview(P.to_bytes(nslots * kb + 1, "little", signed=True))
    half, full = 1 << (k - 1), 1 << k
    from_bytes = int.from_bytes
    rows, carry = [], 0
    for j in range(top + 1):
        row = []
        for s in range(width * j, min(width * (j + 1), nslots)):
            v = from_bytes(buf[s * kb:(s + 1) * kb], "little") + carry
            carry = v >= half
            row.append(v - full if carry else v)
        del row[top - j + 1:]  # the slots past x^(top - j) hold zeros
        while row and not row[-1]:
            row.pop()
        rows.append(row)
    return rows


def _packed_substitute(cforms, n, fcharts, top):
    """For each form c of degree n, given as a dict from exponent triples to
    ints, the rows (`_unpack`) of the chart of c(f0, f1, f2), which has
    total degree <= top = n * deg f.

    The charts go to Kronecker-packed ints, sum c * 2^(k*(i + width*j)) for
    width = top + 1, where k, a multiple of 8, exceeds the bit length of
    the bound |c|_1 * max_t |f_t|_1 ^ n on every coefficient of the result
    by one, so each slot is one balanced digit.  Each c(f) is a Horner
    scheme over one in the f_t with the fewest terms, with the powers of
    the f_t with the most terms cached; a product by an f_t is `_times`.
    None when those powers, about n/2 times the size of the result, would
    take more than _PACK_BITS.
    """
    width = top + 1
    bound = max(sum(map(abs, t.values())) for t in cforms) \
        * max(sum(abs(a) for a, _b in t.values()) for t in fcharts) ** n
    k = -(-(bound.bit_length() + 1) // 8) * 8
    if k * width * top * (n + 1) // 2 > _PACK_BITS:
        return None
    inner, outer, cached = sorted(range(3), key=lambda t: len(fcharts[t]))
    Y, X, Z = ([(k * (i + width * j), a) for (i, j), (a, _b) in fcharts[t].items()]
               for t in (inner, outer, cached))
    zpow = [1]
    for _ in range(n):
        zpow.append(_times(zpow[-1], Z))
    out = []
    for form in cforms:
        by_i = {}
        for e, a in form.items():
            by_i.setdefault(e[outer], {})[e[inner]] = a
        acc = 0
        for i in range(max(by_i, default=0), -1, -1):
            if acc:
                acc = _times(acc, X)
            terms = by_i.get(i)
            if not terms:
                continue
            part = 0
            for j in range(max(terms), -1, -1):
                if part:
                    part = _times(part, Y)
                a = terms.get(j)
                if a:
                    part += a * zpow[n - i - j]
            acc += part
        out.append(_unpack(acc, k, width, top))
    return out


def _sub_line(h, q, a, c):
    """h - (a*x + c) * q for coefficient lists in x, trailing zeros dropped."""
    out = h + [0] * (len(q) + 1 - len(h))
    for i, v in enumerate(q):
        out[i] -= c * v
        out[i + 1] -= a * v
    while out and not out[-1]:
        out.pop()
    return out


def _exact_quotient(t, b):
    """t / b entrywise for an int b != 0, or None when b does not divide t."""
    if b == 1:
        return t
    if b == -1:
        return [-v for v in t]
    out = []
    for v in t:
        q, r = divmod(v, b)
        if r:
            return None
        out.append(q)
    return out


def _divide_by_line(rows, a, b, c):
    """The rows (as in `_unpack`) of h / (a*x + b*y + c) for the chart h in
    rows, or None when the line does not divide h.

    For b != 0 the division runs along y, on coefficients in Z[x]: with
    h = sum h_j y^j and quotient sum q_j y^j, q_(j-1) = (h_j - (a*x + c) q_j) / b
    from the top, and h_0 = (a*x + c) q_0 checks it.  For b = 0 each row is
    divided by a*x + c.  A primitive line that divides h over Q divides it
    over Z (Gauss), so a remainder on the way is an answer."""
    if b:
        out, q = [[] for _ in rows[1:]], []
        for j in range(len(rows) - 1, 0, -1):
            q = _exact_quotient(_sub_line(rows[j], q, a, c), b)
            if q is None:
                return None
            out[j - 1] = q
        if _sub_line(rows[0], q, a, c):
            return None
    else:
        out = []
        for h in rows:
            q = [0] * (len(h) - 1)
            for i in range(len(h) - 1, 0, -1):
                v, r = divmod(h[i] - (c * q[i] if i < len(q) else 0), a)
                if r:
                    return None
                q[i - 1] = v
            if h and (not q or h[0] != c * q[0]):
                return None
            out.append(q)
    while out and not out[-1]:
        out.pop()
    return out


def _times_line(rows, a, b, c):
    """The rows of (a*x + b*y + c) * h for the chart h in rows."""
    out, below = [], []
    for row in rows + [[]]:
        new = [b * v for v in below] + [0] * (len(row) + 1 - len(below))
        for i, v in enumerate(row):
            new[i] += c * v
            new[i + 1] += a * v
        while new and not new[-1]:
            new.pop()
        out.append(new)
        below = row
    while out and not out[-1]:
        out.pop()
    return out


def _from_rows(rows, degree):
    """The HomPoly of the given degree whose z = 1 chart has these rows."""
    return HomPoly._clean({(i, j, degree - i - j): Scalar(v)
                           for j, row in enumerate(rows) for i, v in enumerate(row) if v},
                          degree)


def _packed_compose(ccomps, fcomps):
    """(top, rows) for c o f over Q: rows holds, for each component of c,
    the rows (`_unpack`) of the chart of c(f0, f1, f2) by
    `_packed_substitute`, whose total degree is at most top = deg c * deg f.
    None when the packed ints would pass _PACK_BITS."""
    n = next(p.degree for p in ccomps if p)
    top = n * next(p.degree for p in fcomps if p)
    cforms = [{(i, j, n - i - j): a for (i, j), (a, _b) in t.items()} for t in _chart(ccomps)[1]]
    rows = _packed_substitute(cforms, n, _chart(fcomps)[1], top)
    return None if rows is None else (top, rows)


def _compose_on_lines(ccomps, fcomps, lines):
    """(components, common_factor_or_None) of c o f, with the contract of
    `compose_reduce(ccomps, fcomps)`, for f with the lines of det Jac(f)
    from `_jacobian_lines`; None when the packed ints would be too large.

    c(f) comes from `_packed_compose`, as in `compose_reduce`, but no gcd
    is taken.  When c and f are coprime and f is dominant, every curve on
    which the three components of c o f vanish is contracted by f into the
    finitely many base points of c, so it lies in det Jac(f) = 0, and the
    common factor is a product of its lines.  Each line off z = 0 is peeled
    off every component by `_divide_by_line` as often as it divides all of
    them; the power of z is read off the drop in chart degree, as in
    `_divide_out`.
    """
    packed = _packed_compose(ccomps, fcomps)
    if packed is None:
        return None
    top, comps = packed
    factor = [[1]]  # the rows of the product of the peeled lines
    for a, b, c in lines:
        if not (a or b):
            continue  # z: the drop in chart degree
        while True:
            peeled = []
            for rows in comps:
                rows = _divide_by_line(rows, a, b, c)
                if rows is None:
                    break
                peeled.append(rows)
            else:
                comps = peeled
                factor = _times_line(factor, a, b, c)
                continue
            break
    degree = max(j + len(row) - 1 for rows in comps for j, row in enumerate(rows) if row)
    removed = top - degree  # the lines' degree and the power of z
    out = [_from_rows(rows, degree) for rows in comps]
    return out, (_from_rows(factor, removed).monic() if removed else None)


# -- linear forms and line factorization ----------------------------------

class LinearForm:
    """A line a0*x + a1*y + a2*z = 0, canonicalized by leading coefficient 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Scalar.coerce(c) for c in coeffs]
        if len(coeffs) != 3 or all(not c for c in coeffs):
            raise ValueError("linear form needs a nonzero coefficient triple")
        lead = next(c for c in coeffs if c)
        coeffs = [c / lead for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("LinearForm is immutable")

    @staticmethod
    def from_poly(p):
        if p.degree != 1 or p.is_zero():
            raise ValueError("not a linear form")
        return LinearForm([
            p.coefficient((1, 0, 0)),
            p.coefficient((0, 1, 0)),
            p.coefficient((0, 0, 1)),
        ])

    def to_poly(self):
        a0, a1, a2 = self.coeffs
        return HomPoly({(1, 0, 0): a0, (0, 1, 0): a1, (0, 0, 1): a2}, 1)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return str(self.to_poly())

    __repr__ = __str__


def parametrize_line(L):
    """Two spanning points of {L = 0}, as a map (s, t) -> P^2.

    Returns a triple of coefficient pairs ((p0, q0), (p1, q1), (p2, q2))
    meaning coordinate i equals p_i * s + q_i * t.  The first nonzero
    coefficient of L is 1, so the points need no division.
    """
    a = L.coeffs
    idx = next(i for i in range(3) if a[i])
    others = [i for i in range(3) if i != idx]
    pts = []
    for o in others:
        v = [SZERO, SZERO, SZERO]
        v[o] = SONE
        v[idx] = -a[o]
        pts.append(v)
    P, Q = pts
    return tuple((P[i], Q[i]) for i in range(3))


def restrict_to_line(p, L):
    """Binary form (in s, t) of p restricted to the line {L = 0}.

    Returned as a coefficient list b where b[i] multiplies s^i t^(n-i): p
    substituted with the coordinates of `parametrize_line(L)` as linear
    forms in s = x, t = y.
    """
    n = p.degree
    lin = [HomPoly({(1, 0, 0): ps, (0, 1, 0): qt}, 1) for ps, qt in parametrize_line(L)]
    st = _substitute(p.terms, lin, HomPoly, n)
    return [st.coefficient((i, n - i, 0)) for i in range(n + 1)]


# -- root finding over the working field ----------------------------------

def _int_divisors(n):
    n = abs(n)
    if n == 0:
        return [0]
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


_ROOT_SEARCH_CAP = 10 ** 7


def field_roots(coeffs, field_d=0):
    """Roots of a univariate Scalar polynomial inside Q(sqrt(field_d)).

    Returns (roots_with_multiplicity, fully_split).  Multiplicities come out
    of repeated deflation.  Gives up (fully_split=False) on irreducible
    factors of degree >= 2, on degree >= 3 factors that are not a multiple
    of a rational polynomial, and on oversized rational-root searches.
    """
    p = pstrip([Scalar.coerce(c) for c in coeffs])
    roots = []
    fully = True
    while pdegree(p) >= 1:
        d = pdegree(p)
        if d == 1:
            roots.append(-p[0] / p[1])
            break
        if d == 2:
            a, b, c = p[2], p[1], p[0]
            disc = b * b - a * c * 4
            r = disc.sqrt_in_field(field_d)
            if r is None:
                fully = False
                break
            roots.append((-b + r) / (a * 2))
            roots.append((-b - r) / (a * 2))
            break
        if p[0].is_zero():
            roots.append(SZERO)
            p = p[1:]
            continue
        monic = [c / p[-1] for c in p]  # rational for an irrational multiple of one
        if not all(c.is_rational() for c in monic):
            fully = False
            break
        den_lcm = 1
        for c in monic:
            den_lcm = den_lcm * c.a.denominator // math.gcd(den_lcm, c.a.denominator)
        ints = [int(c.a * den_lcm) for c in monic]
        content = 0
        for v in ints:
            content = math.gcd(content, v)
        ints = [v // content for v in ints]
        if abs(ints[0]) > _ROOT_SEARCH_CAP or abs(ints[-1]) > _ROOT_SEARCH_CAP:
            fully = False
            break
        found = None
        for num in _int_divisors(ints[0]):
            for den in _int_divisors(ints[-1]):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    val = sum(Fraction(ints[i]) * cand ** i for i in range(len(ints)))
                    if val == 0:
                        found = Scalar(cand)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            fully = False
            break
        roots.append(found)
        p, rem = pdivmod(p, [-found, SONE])
        if rem:
            raise InexactDivision(f"root {found} leaves remainder {rem}")
    return roots, fully


def factor_linear_cubic(c):
    """Split a form of degree <= 3 into linear factors over the field of its
    coefficients.

    Returns a list of (LinearForm, multiplicity) or NOT_FULLY_SPLIT.
    """
    if c.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field_d = _field_of([c])
    factors = []
    p = c
    # coordinate-variable factors first
    for a in range(3):
        m = p.min_exponent(a)
        if m:
            e = [0, 0, 0]
            e[a] = 1
            lf = LinearForm.from_poly(HomPoly.monomial(SONE, e))
            factors.append((lf, m))
            p = p.shift_down(a, m)
    while p.degree >= 1:
        if p.degree == 1:
            factors.append((LinearForm.from_poly(p), 1))
            p = HomPoly.constant(1)
            break
        lf = _find_linear_factor(p, field_d)
        if lf is None:
            return NOT_FULLY_SPLIT
        q = divide_exact(p, lf.to_poly())
        if q is None:
            raise InexactDivision(f"linear factor {lf} does not divide {p}")
        factors.append((lf, 1))
        p = q
    # merge duplicate factors
    merged = {}
    for lf, m in factors:
        merged[lf] = merged.get(lf, 0) + m
    return sorted(merged.items(), key=lambda it: str(it[0]))


def _find_linear_factor(p, field_d):
    """One linear factor of p (degree >= 2, no coordinate-variable factor),
    or None.

    A factor alpha*x + beta*y + gamma*z restricts on z = 0 to a factor of
    p(x, y, 0), so (alpha : beta) is a root of that binary form, or (0 : 1)
    when it loses degree.  On the line of a candidate, parametrized with
    s = 1 by (beta, -alpha - t*gamma, beta*t), or (-t*gamma, 1, alpha*t)
    when beta = 0, p is a polynomial in t and gamma; the line divides p when
    every coefficient of a power of t vanishes at gamma, so gamma is a root
    of their gcd, and each is checked by exact division.
    """
    n = p.degree
    bz = pstrip(restrict_to_line(p, LinearForm([0, 0, 1])))  # bz[i]: x^i y^(n-i)
    roots, _ = field_roots(bz, field_d)
    cands = [(SZERO, SONE)] if len(bz) <= n else []
    cands += [(SONE, -r) for r in dict.fromkeys(roots)]  # x - r*y
    t, gamma = BiPoly.var("x"), BiPoly.var("y")
    for alpha, beta in cands:
        if beta:
            line = (BiPoly.coerce(beta), -gamma * t - alpha, t * beta)
        else:
            line = (-gamma * t, BiPoly.coerce(1), t * alpha)
        h = _substitute(p.terms, line, BiPoly, 0)
        by_t = {}
        for (i, j), c in h.terms.items():
            by_t.setdefault(i, [SZERO] * (n + 1))[j] = c
        g = []
        for gp in by_t.values():
            g = pgcd(g, pstrip(gp))
        for gam in field_roots(g, field_d)[0]:
            lf = LinearForm([alpha, beta, gam])
            if divide_exact(p, lf.to_poly()) is not None:
                return lf
    return None


# -- parsing --------------------------------------------------------------
#
# parse_poly evaluates a whitelisted `ast` tree, never Python.  While it
# runs, a polynomial is a dict {(i, j, k, s): c} standing for the sum of
# c * sqrt(s) * x^i y^j z^k, with c a Fraction and s a squarefree int
# (sqrt(-1) = I), so that one radical spelled two ways (I*sqrt(3),
# sqrt(-3), sqrt(-12)/2) is one key.

_UNIT = (0, 0, 0, 1)
_PARSE_NAMES = {
    "x": {(1, 0, 0, 1): Fraction(1)},
    "y": {(0, 1, 0, 1): Fraction(1)},
    "z": {(0, 0, 1, 1): Fraction(1)},
    "I": {(0, 0, 0, -1): Fraction(1)},
}


def _p_add(u, v):
    out = dict(u)
    for key, c in v.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _p_neg(u):
    return {key: -c for key, c in u.items()}


def _p_mul(u, v):
    out = {}
    for (i, j, k, s), a in u.items():
        for (i2, j2, k2, t), b in v.items():
            # sqrt(s) sqrt(t) = g sqrt(s t / g^2), and -g when both are imaginary
            g = math.gcd(s, t)
            key = (i + i2, j + j2, k + k2, s * t // (g * g))
            c = a * b * g
            out[key] = out.get(key, 0) + (c if s > 0 or t > 0 else -c)
    return {key: c for key, c in out.items() if c}


def _p_pow(u, n):
    out = {_UNIT: Fraction(1)}
    for bit in bin(n)[2:]:
        out = _p_mul(out, out)
        if bit == "1":
            out = _p_mul(out, u)
    return out


def _p_div(u, v):
    """u / v for a nonzero constant v = a + b sqrt(s)."""
    if any(key[:3] != (0, 0, 0) for key in v):
        raise ValueError("division by a polynomial that is not constant")
    if not v:
        raise ValueError("division by zero")
    rads = {key[3] for key in v} - {1}
    if len(rads) > 1:
        raise IncompatibleField("division by a sum of two radicals")
    s = rads.pop() if rads else 1
    a = v.get(_UNIT, 0)
    b = v.get((0, 0, 0, s), 0) if s != 1 else 0
    norm = a * a - b * b * s
    return _p_mul(u, {key: c for key, c in ((_UNIT, a / norm), ((0, 0, 0, s), -b / norm)) if c})


def _p_sqrt(u):
    """sqrt(q) for a constant rational u = q, as k sqrt(s) from
    `scalars._radical`."""
    if any(key != _UNIT for key in u):
        raise ValueError("sqrt of something other than a rational number")
    q = u.get(_UNIT, Fraction(0))
    if not q:
        return {}
    k, s = _radical(q)
    return {(0, 0, 0, s): Fraction(k)}


_CHAIN_OPS = {
    ast.Add: _p_add,
    ast.Sub: lambda u, v: _p_add(u, _p_neg(v)),
    ast.Mult: _p_mul,
    ast.Div: _p_div,
}


def _eval_poly(node, names, src):
    """Value of a tree of numbers, the names, sqrt(rational), unary +-,
    + - * / and powers by int literals; ValueError on anything else.

    The left spine of + - * / is walked in a loop, so a long sum stays
    within the recursion limit."""
    chain = []
    while isinstance(node, ast.BinOp) and type(node.op) in _CHAIN_OPS:
        chain.append(node)
        node = node.left
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # a decimal is read from its digits, not from the float
        v = Fraction(node.value if type(node.value) is int
                     else ast.get_source_segment(src, node))
        acc = {_UNIT: v} if v else {}
    elif isinstance(node, ast.Name) and node.id in names:
        acc = names[node.id]
    elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        acc = _eval_poly(node.operand, names, src)
        if isinstance(node.op, ast.USub):
            acc = _p_neg(acc)
    elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int and node.right.value >= 0):
        acc = _p_pow(_eval_poly(node.left, names, src), node.right.value)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords):
        acc = _p_sqrt(_eval_poly(node.args[0], names, src))
    else:
        raise ValueError(f"not allowed in a polynomial: {ast.unparse(node)!r}")
    for op_node in reversed(chain):
        acc = _CHAIN_OPS[type(op_node.op)](acc, _eval_poly(op_node.right, names, src))
    return acc


def parse_poly(text, cls="hom"):
    """Parse polynomial input such as `3*x^2*y - 1/2*z^3 + sqrt(-3)*x*y*z`.

    The grammar: int and decimal literals, x, y and z (x and y only for
    cls="biv"), `I` and `sqrt(<rational>)`, unary +-, `+ - *`, `/` by a
    nonzero constant, `^` or `**` by a non-negative int literal, and
    parentheses.  The text is parsed by `ast` and evaluated node by node,
    never as Python.  Radicals are reduced (sqrt(8) = 2 sqrt(2),
    sqrt(-3) = I*sqrt(3)); IncompatibleField when two different radicals
    remain, ValueError on anything outside the grammar.
    """
    names = _PARSE_NAMES if cls == "hom" else {v: _PARSE_NAMES[v] for v in ("x", "y", "I")}
    src = text.replace("^", "**").strip()
    try:
        poly = _eval_poly(ast.parse(src, mode="eval").body, names, src)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot parse {text!r}: {type(exc).__name__}") from None
    rads = {key[3] for key in poly} - {1}
    if len(rads) > 1:
        raise IncompatibleField(f"more than one radical in {text!r}: "
                                + ", ".join(f"sqrt({s})" for s in sorted(rads)))
    d = rads.pop() if rads else 0
    ab = {}
    for (i, j, k, s), c in poly.items():
        a, b = ab.get((i, j, k), (0, 0))
        ab[(i, j, k)] = (a + c, b) if s == 1 else (a, b + c)
    terms = {e: Scalar(a, b, d) for e, (a, b) in ab.items()}
    if cls == "hom":
        return HomPoly(terms)
    return BiPoly({e[:2]: c for e, c in terms.items()})
