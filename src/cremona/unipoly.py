"""Dense univariate polynomials, the one home of coefficient lists.

Polynomials are plain lists of coefficients, constant term first, with no
trailing zeros (the zero polynomial is the empty list).  Coefficients only
need the usual operator overloads (+, -, *, /, ==, bool), so the same
routines serve int, complex and Scalar coefficients alike, and the
polynomial entries of de Jonquieres elements in `ratmap`; a routine that
starts from a zero or a one takes it as an argument, Scalar by default
(`pmul(p, q, zero=0)` multiplies int lists).  `_intpoly_divmod` is
exact division over Z.  The F_p helpers of `pairpoly` reduce mod p at every
step and stay there.
"""

from __future__ import annotations

from .errors import InexactDivision
from .scalars import Scalar

SZERO = Scalar(0)
SONE = Scalar(1)


def pstrip(p):
    while p and not p[-1]:
        p.pop()
    return p


def pdegree(p):
    return len(p) - 1


def padd(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        if i < len(p) and i < len(q):
            out.append(p[i] + q[i])
        elif i < len(p):
            out.append(p[i])
        else:
            out.append(q[i])
    return pstrip(out)


def pneg(p):
    return [-c for c in p]


def pscale(p, c):
    if not c:
        return []
    return [ci * c for ci in p]


def pmul(p, q, zero=SZERO):
    if not p or not q:
        return []
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return pstrip(out)


def ppow(p, k, zero=SZERO, one=SONE):
    if k < 0:
        raise ValueError(f"negative power {k} of a polynomial")
    r = [one]
    base = list(p)
    while k:
        if k & 1:
            r = pmul(r, base, zero)
        base = pmul(base, base, zero)
        k >>= 1
    return r


def pdivmod(num, den):
    """Exact field quotient and remainder; den must be nonzero."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    r = pstrip(list(num))
    dn = len(den) - 1
    lead = den[-1]
    q = []
    while r and len(r) - 1 >= dn:
        shift = len(r) - 1 - dn
        c = r[-1] / lead
        zero = c - c
        q = padd(q, [zero] * shift + [c])
        for i, b in enumerate(den):
            r[shift + i] = r[shift + i] - c * b
        pstrip(r)
    return q, r


def pquo_exact(num, den):
    q, r = pdivmod(num, den)
    if r:
        raise InexactDivision("inexact polynomial division")
    return q


def pmonic(p):
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def pgcd(p, q):
    """Monic gcd by the Euclidean algorithm over a field."""
    a, b = list(p), list(q)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    return pmonic(a)


def peval(p, x, zero=SZERO):
    acc = zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _intpoly_divmod(num, den):
    """Division in Q[x] but returning None unless quotient is integral and exact."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * max(len(num) - dn, 0)
    while len(num) - 1 >= dn and any(num):
        shift = len(num) - 1 - dn
        if num[-1] % den[-1] != 0:
            return None
        c = num[-1] // den[-1]
        out[shift] = c
        for i, b in enumerate(den):
            num[shift + i] -= c * b
        while num and num[-1] == 0:
            num.pop()
    if any(num):
        return None
    return out


def peval_mobius(p, num, den, zero=SZERO, one=SONE):
    """p(num/den) * den^deg(p) as a polynomial; used for Mobius substitution."""
    n = len(p) - 1
    if n < 0:
        return []
    out = []
    for i, c in enumerate(p):
        if not c:
            continue
        term = pscale(pmul(ppow(num, i, zero, one), ppow(den, n - i, zero, one), zero), c)
        out = padd(out, term)
    return out

