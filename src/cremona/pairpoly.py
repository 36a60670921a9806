"""Bivariate polynomials over Q and Q(sqrt(d)) on pairs of ints, and their
greatest common divisor by a certified modular algorithm.

`scalars` keeps the d of Q(sqrt(d)) as a squarefree int e, and e = 0 is Q,
so any polynomial over Q(sqrt(e)) scales to one whose coefficients are
A + B*sqrt(e) with A and B ints, and B = 0 over Q.  Such a polynomial in
x, y is a dict {(i, j): (A, B)} with no (0, 0) values; a rational one is a
pair (terms, den) standing for terms / den.

`gcd_cofactors` returns the gcd g, monic in lex order with x > y, and the
quotients of its inputs by g; it is the one gcd kernel of `poly`, on both
fields.  At a prime p where e is a nonzero square, the two roots +-r of e
mod p give two maps sigma of Z[sqrt(e)] onto F_p.  The gcd of the images
under each is found by Brown's dense bivariate algorithm (J. ACM 18, 1971),
and the two image gcds give a and b mod p for each coefficient a + b*sqrt(e)
of g (Langemyr and McCallum, J. Symbolic Comput. 8, 1989).  Over Q one map,
reduction mod p, gives a mod p, and b stays 0.  Images from several primes
are combined by the Chinese remainder theorem and rational reconstruction,
and a candidate c is accepted only when it divides every input exactly.
That proves c = g: c divides g, and at a good prime sigma(g) divides the
image gcd, so LM(g) divides LM(image) = LM(c).  A prime is good when p does
not divide the norm of the lex-leading coefficient of the first input and,
over Q(sqrt(e)), e is a nonzero square mod p and p does not divide 2e; then
g has p-integral coefficients and sigma(g) is defined.

Both lex divisions, Brown's check of each image gcd over F_p
(`_divides_mod`) and the exact trial division on int pairs (`_divide`),
scan a dense grid of the dividend's x- and y-degrees once, in descending
lex order.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ResourceLimit
from .unipoly import pstrip

_PRIME_TOP = 1 << 62
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class PairPoly:
    """Polynomial in x, y with coefficients A + B*sqrt(e), A and B ints.

    It supplies the operations the monomial-sharing substitution in `poly`
    uses: `*`, `+` and `mul_ground` by an int pair.  With e = 0 and every
    B = 0 it is a polynomial over ZZ, as the ansatz images of
    `ratmap.inverse` over Q use it.
    """

    __slots__ = ("terms", "e")

    def __init__(self, terms, e):
        self.terms = terms
        self.e = e

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, (a, b) in other.terms.items():
            if k in out:
                oa, ob = out[k]
                a += oa
                b += ob
                if not a and not b:
                    del out[k]
                    continue
            out[k] = (a, b)
        return PairPoly(out, self.e)

    def __mul__(self, other):
        e = self.e
        out = {}
        for (i1, j1), (a1, b1) in self.terms.items():
            eb1 = e * b1
            for (i2, j2), (a2, b2) in other.terms.items():
                k = (i1 + i2, j1 + j2)
                a = a1 * a2 + eb1 * b2
                b = a1 * b2 + b1 * a2
                if k in out:
                    oa, ob = out[k]
                    out[k] = (oa + a, ob + b)
                else:
                    out[k] = (a, b)
        return PairPoly({k: v for k, v in out.items() if v[0] or v[1]}, e)

    def mul_ground(self, c):
        a2, b2 = c
        eb2 = self.e * b2
        return PairPoly(
            {k: (a1 * a2 + b1 * eb2, a1 * b2 + b1 * a2)
             for k, (a1, b1) in self.terms.items()},
            self.e,
        )


def _monic(terms, e):
    """terms made monic in lex order, as (pair terms, den) with den > 0."""
    a, b = terms[max(terms)]
    # 1/(a + b sqrt e) = (a - b sqrt e) / (a^2 - e b^2)
    norm = a * a - e * b * b
    if norm < 0:
        a, b, norm = -a, -b, -norm
    return PairPoly(terms, e).mul_ground((a, -b)).terms, norm


def gcd_cofactors(polys, e):
    """Monic gcd of nonzero pair-term dicts and the quotients by it.

    Returns ((g, den), [(q, s), ...]): g / den is the gcd and q / s the
    quotient of each input by it.
    """
    return _modular_gcd(polys, e, _primes())


def _modular_gcd(polys, e, primes):
    """gcd_cofactors, trying the primes of the iterable primes in turn."""
    if len(polys) == 1:
        (h,) = polys
        if max(h) == (0, 0):
            return ({(0, 0): (1, 0)}, 1), [(h, 1)]
        return _monic(h, e), [({(0, 0): h[max(h)]}, 1)]
    la, lb = polys[0][max(polys[0])]
    norm = la * la - e * lb * lb
    best = None  # leading monomial of the images combined so far
    modulus = 1
    residues = {}  # monomial -> (a, b) mod modulus
    for p in primes:
        if not norm % p or e and (not e % p or pow(e % p, (p - 1) // 2, p) != 1):
            continue
        r = _sqrt_mod(e % p, p) if e else 0  # over Q, one image: reduction mod p
        plus = _gcd_mod([_image(h, r, p) for h in polys], p)
        lm = max(plus)
        if lm == (0, 0):
            return ({(0, 0): (1, 0)}, 1), [(h, 1) for h in polys]
        if best is not None and lm > best:
            continue
        if e:
            minus = _gcd_mod([_image(h, p - r, p) for h in polys], p)
            if max(minus) != lm:
                continue
            half = (p + 1) // 2
            inv2r = pow(2 * r, -1, p)
            image = {}
            for k in plus.keys() | minus.keys():
                u, v = plus.get(k, 0), minus.get(k, 0)
                image[k] = (u + v) * half % p, (u - v) * inv2r % p
        else:
            image = {k: (u, 0) for k, u in plus.items()}
        if best is None or lm < best:
            best, modulus, residues = lm, 1, {}
        m_inv = pow(modulus, -1, p)
        for k in residues.keys() | image.keys():
            a_p, b_p = image.get(k, (0, 0))
            a_m, b_m = residues.get(k, (0, 0))
            residues[k] = (a_m + modulus * ((a_p - a_m) * m_inv % p),
                           b_m + modulus * ((b_p - b_m) * m_inv % p))
        modulus *= p
        cand = _reconstruct(residues, modulus)
        if cand is None:
            continue
        quotients = [_divide(h, cand, e) for h in polys]
        if all(q is not None for q in quotients):
            return cand, quotients
    raise ResourceLimit("modular gcd: no prime left to certify a candidate")


# -- primes and reconstruction ------------------------------------------------

def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime(k):
    """The k-th prime below 2^62, counting down from 0."""
    n = _PRIME_TOP + 1 if k == 0 else _prime(k - 1)
    n -= 2
    while not _is_prime(n):
        n -= 2
    return n


def _primes():
    k = 0
    while True:
        yield _prime(k)
        k += 1


def _sqrt_mod(a, p):
    """A square root of the quadratic residue a mod the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        c = b * b % p
        r = r * b % p
        t = t * c % p
        s = i
    return r


def _ratrec(u, modulus, bound):
    """Fraction n/d = u mod modulus with |n|, d <= bound, or None."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(residues, modulus):
    """Rational pair terms (terms, den) from residues mod modulus, or None."""
    bound = math.isqrt(modulus // 2)
    fracs = {}
    for k, (a, b) in residues.items():
        fa = _ratrec(a, modulus, bound)
        fb = _ratrec(b, modulus, bound)
        if fa is None or fb is None:
            return None
        if fa or fb:
            fracs[k] = (fa, fb)
    den = 1
    for fa, fb in fracs.values():
        den = math.lcm(den, fa.denominator, fb.denominator)
    return {k: (fa.numerator * (den // fa.denominator),
                fb.numerator * (den // fb.denominator))
            for k, (fa, fb) in fracs.items()}, den


def _grid(h, width):
    """Rows over x-degree i, each a list over y-degree j < width, of the
    values of the term dict h."""
    grid = [[0] * width for _ in range(max(h)[0] + 1)]
    for (i, j), v in h.items():
        grid[i][j] = v
    return grid


def _divide(h, c, e):
    """h / (g / den) for pair terms h and c = (g, den) with lex-leading
    coefficient (den, 0), as (q, s) standing for q / s; None if inexact.

    Lex division with x > y, fraction-free, as one descending-lex scan of
    h's dense grid of x- and y-degrees, one grid for A and one for B of
    A + B*sqrt(e).  When g divides h, every partial remainder has x- and
    y-degrees within h's, so a term that would land outside the grid, or a
    leading term that g's does not divide, means g does not divide h.
    """
    g, den = c
    gi, gj = lm = max(g)
    rest = [(i - gi, j - gj, u, v) for (i, j), (u, v) in g.items() if (i, j) != lm]
    width = max(j for _i, j in h) + 1
    A = _grid({k: a for k, (a, _b) in h.items()}, width)
    B = _grid({k: b for k, (_a, b) in h.items()}, width)
    irrational = any(v for _di, _dj, _u, v in rest)  # a rational g moves B only by b
    quot = {}
    s = 1  # the grids and quot stand for them / s
    for i in range(len(A) - 1, -1, -1):
        ra, rb = A[i], B[i]
        for j in range(width - 1, -1, -1):
            a, b = ra[j], rb[j]
            if not (a or b):
                continue
            if i < gi or j < gj:
                return None
            step = den // math.gcd(den, a, b)
            if step > 1:
                s *= step
                a, b = a * step, b * step
                for grid in (A, B):
                    for t in range(i):
                        grid[t] = [v * step for v in grid[t]]
                ra[:j] = [v * step for v in ra[:j]]
                rb[:j] = [v * step for v in rb[:j]]
                quot = {k: (u * step, v * step) for k, (u, v) in quot.items()}
            quot[(i - gi, j - gj)] = (a, b)
            a //= den
            b //= den
            eb = e * b
            for di, dj, u, v in rest:
                t = j + dj
                if t >= width:
                    return None
                A[i + di][t] -= a * u + eb * v
            if b or irrational:
                for di, dj, u, v in rest:
                    B[i + di][j + dj] -= a * v + b * u
    return quot, s


# -- gcd over F_p ---------------------------------------------------------------

def _image(h, r, p):
    """Terms of h under sqrt(e) -> r, mod p."""
    out = {}
    for k, (a, b) in h.items():
        c = (a + b * r) % p
        if c:
            out[k] = c
    return out


def _gcd_mod(polys, p):
    """Gcd over F_p of dicts {(i, j): c}, monic in lex order with x > y.

    Brown's dense algorithm: the polynomials are taken in y over F_p[x];
    their content is a gcd in F_p[x], and the primitive part comes from
    images at x = a, each a monic gcd in y scaled by gamma(a) for gamma the
    gcd of the leading coefficients, interpolated in x and made primitive,
    and checked by division.
    """
    polys = [q for q in polys if q]
    if len(polys) == 1:
        return _monic_mod(polys[0], p)
    rows = [_rows(q, p) for q in polys]
    content = []
    prims = []
    for rs in rows:
        c = []
        for row in rs:
            if row:
                c = _ugcd(c, row, p) if c else _umonic(row, p)
                if len(c) == 1:
                    break
        content = _ugcd(content, c, p) if content else c
        prims.append(rs if len(c) == 1 else [_udivmod(row, c, p)[0] for row in rs])
    gamma = []
    for rs in prims:
        gamma = _ugcd(gamma, rs[-1], p) if gamma else _umonic(rs[-1], p)
    bound = len(gamma) + min(max(len(row) for row in rs) for rs in prims) - 1
    dmin = None
    points = []
    a = 0
    while True:
        a += 1
        ga = _ueval(gamma, a, p)
        if not ga:
            continue
        img = []
        for rs in prims:
            ys = [_ueval(row, a, p) for row in rs]
            img = _ugcd(img, pstrip(ys), p) if img else pstrip(ys)
        img = _umonic(img, p)
        deg = len(img) - 1
        if deg == 0:
            return _monic_mod(_times_rows(content, [[1]], p), p)
        if dmin is None or deg < dmin:
            dmin, points = deg, []
        elif deg > dmin:
            continue
        points.append((a, [v * ga % p for v in img]))
        if len(points) < bound:
            continue
        cand = _interpolate(points, p)
        c = []
        for row in cand:
            if row:
                c = _ugcd(c, row, p) if c else _umonic(row, p)
        cand = [_udivmod(row, c, p)[0] for row in cand]
        cterms = _times_rows([1], cand, p)
        if all(_divides_mod(_times_rows([1], rs, p), cterms, p) for rs in prims):
            return _monic_mod(_times_rows(content, cand, p), p)
        points = []  # every point so far was unlucky


def _rows(q, p):
    """q as a list over y-degree j of coefficient lists in x."""
    dy = max(j for _i, j in q)
    rows = [[] for _ in range(dy + 1)]
    for (i, j), c in q.items():
        row = rows[j]
        if len(row) <= i:
            row.extend([0] * (i + 1 - len(row)))
        row[i] = c % p
    return rows


def _times_rows(c, rows, p):
    """Dict terms of c(x) * sum_j rows[j](x) y^j over F_p."""
    out = {}
    for j, row in enumerate(rows):
        if row:
            for i, v in enumerate(_umul(c, row, p)):
                if v:
                    out[(i, j)] = v
    return out


def _monic_mod(q, p):
    inv = pow(q[max(q)], -1, p)
    return {k: v * inv % p for k, v in q.items()}


def _divides_mod(h, g, p):
    """Whether g divides h over F_p: lex division with x > y as one
    descending-lex scan of h's dense grid, as in `_divide`."""
    gi, gj = lm = max(g)
    inv = pow(g[lm], -1, p)
    rest = [(i - gi, j - gj, v) for (i, j), v in g.items() if (i, j) != lm]
    width = max(j for _i, j in h) + 1
    grid = _grid(h, width)
    for i in range(len(grid) - 1, -1, -1):
        row = grid[i]
        for j in range(width - 1, -1, -1):
            c = row[j] % p
            if not c:
                continue
            if i < gi or j < gj:
                return False
            c = c * inv % p
            for di, dj, v in rest:
                t = j + dj
                if t >= width:
                    return False
                grid[i + di][t] -= c * v
    return True


def _interpolate(points, p):
    """Rows in x through (a, values) for each y-degree, by Newton's form."""
    width = len(points[0][1])
    rows = [[] for _ in range(width)]
    basis = [1]  # prod (x - a) over the points used so far
    for a, vals in points:
        scale = pow(_ueval(basis, a, p), -1, p)
        for t in range(width):
            delta = (vals[t] - _ueval(rows[t], a, p)) * scale % p
            if delta:
                rows[t] = _uadd(rows[t], [c * delta for c in basis], p)
        basis = _umul(basis, [-a % p, 1], p)
    return [pstrip(row) for row in rows]


# univariate polynomials over F_p: lists of ints, constant term first, reduced
# mod p at every step (the generic helpers are in `unipoly`)

def _ueval(a, x, p):
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def _uadd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = [c % p for c in a]
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return pstrip(out)


def _umul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return [c % p for c in out]


def _umonic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _udivmod(a, b, p):
    """Quotient and remainder of a by b."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c = q[k - db] = a[k] * inv % p
        if c:
            for t in range(db):
                a[k - db + t] = (a[k - db + t] - c * b[t]) % p
    return q, pstrip(a[:db])


def _ugcd(a, b, p):
    """Monic gcd of nonzero a and b."""
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    return _umonic(a, p)
