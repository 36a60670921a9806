"""Dense univariate polynomials, the one home of coefficient lists.

Polynomials are plain lists of coefficients, constant term first, with no
trailing zeros (the zero polynomial is the empty list).  Coefficients only
need the usual operator overloads (+, -, *, /, ==, bool), so the same
routines serve int, complex, Scalar and RatFunc coefficients alike; a
routine that starts from a zero or a one takes it as an argument, Scalar by
default (`pmul(p, q, zero=0)` multiplies int lists).  `_intpoly_divmod` is
exact division over Z.  The F_p helpers of `pairpoly` reduce mod p at every
step and stay there.
"""

from __future__ import annotations

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
        raise ArithmeticError("inexact polynomial division")
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


class RatFunc:
    """Reduced rational function num/den in the variable y over Scalar.

    The denominator is monic and coprime to the numerator, so equality is
    syntactic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = [SONE]
        num = pstrip([Scalar.coerce(c) for c in num])
        den = pstrip([Scalar.coerce(c) for c in den])
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = pgcd(num, den)
            if pdegree(g) > 0:
                num = pquo_exact(num, g)
                den = pquo_exact(den, g)
        else:
            den = [SONE]
        lead = den[-1]
        num = [c / lead for c in num]
        den = [c / lead for c in den]
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Scalar)) or type(x).__name__ == "Fraction":
            return RatFunc([Scalar.coerce(x)])
        raise TypeError(f"cannot coerce {x!r} to RatFunc")

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = RatFunc.coerce(other)
        n = padd(pmul(list(self.num), list(other.den)), pmul(list(other.num), list(self.den)))
        d = pmul(list(self.den), list(other.den))
        return RatFunc(n, d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(pneg(list(self.num)), list(self.den))

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return RatFunc.coerce(other) + (-self)

    def __mul__(self, other):
        other = RatFunc.coerce(other)
        return RatFunc(pmul(list(self.num), list(other.num)),
                       pmul(list(self.den), list(other.den)))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(list(self.den), list(self.num))

    def __truediv__(self, other):
        return self * RatFunc.coerce(other).inverse()

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) * self.inverse()

    def subst_mobius(self, num, den):
        """self(v -> num(v)/den(v)) with polynomial num, den over Scalar."""
        n = peval_mobius(list(self.num), num, den)
        d = peval_mobius(list(self.den), num, den)
        # matching den powers: pad the lower-degree side
        dn = pdegree(list(self.num))
        dd = pdegree(list(self.den))
        if dn > dd:
            d = pmul(d, ppow(den, dn - dd))
        elif dd > dn:
            n = pmul(n, ppow(den, dd - dn))
        return RatFunc(n, d)

    def __str__(self):
        ns = _poly_str(self.num)
        if self.den == (SONE,):
            return ns
        return f"({ns})/({_poly_str(self.den)})"

    __repr__ = __str__


def _poly_str(coeffs):
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mon = "" if i == 0 else "y" if i == 1 else f"y^{i}"
        parts.append(str(c) if not mon else mon if c == SONE else f"{c}*{mon}")
    return " + ".join(parts) if parts else "0"

