"""Dense univariate polynomials, the one home of coefficient lists.

Polynomials are plain lists of coefficients, constant term first, with no
trailing zeros (the zero polynomial is the empty list).  Coefficients only
need the usual operator overloads (+, -, *, /, **, ==, bool), so the same
routines serve int, complex and Scalar coefficients alike, and the
polynomial entries of de Jonquieres elements in `ratmap`.  A routine that
starts from a zero or a one takes it from its inputs (`p[0] * 0`,
`p[0] ** 0`), so int lists give ints, complex lists complex numbers and
Scalar lists Scalars.  `_intpoly_divmod` is exact division over Z.

The F_p section holds int lists reduced mod a prime p at every step, for
the images of `pairpoly`'s modular gcd and `weyl.strip_cyclotomic`, and
the Miller-Rabin test that picks their primes.
"""

from __future__ import annotations

from .errors import InexactDivision

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def pmul(p, q):
    if not p or not q:
        return []
    out = [p[0] * q[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return pstrip(out)


def ppow(p, k):
    """p^k for k >= 0; the zero polynomial has no one of its own, so 1."""
    if k < 0:
        raise ValueError(f"negative power {k} of a polynomial")
    r = [p[0] ** 0] if p else [1]
    base = list(p)
    while k:
        if k & 1:
            r = pmul(r, base)
        base = pmul(base, base)
        k >>= 1
    return r


def pdivmod(num, den):
    """Exact field quotient and remainder; den must be nonzero."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    r = pstrip(list(num))
    dn = len(den) - 1
    lead = den[-1]
    q = [None] * max(len(r) - dn, 0)
    for k in range(len(r) - 1, dn - 1, -1):
        c = q[k - dn] = r[k] / lead
        if c:
            for t in range(dn):
                r[k - dn + t] = r[k - dn + t] - c * den[t]
    return q, pstrip(r[:dn])


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


def peval(p, x):
    acc = x * 0
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


def peval_mobius(p, num, den):
    """p(num/den) * den^deg(p) as a polynomial; used for Mobius substitution."""
    n = len(p) - 1
    if n < 0:
        return []
    out = []
    for i, c in enumerate(p):
        if not c:
            continue
        term = pscale(pmul(ppow(num, i), ppow(den, n - i)), c)
        out = padd(out, term)
    return out


# -- over F_p: lists of ints, reduced mod the prime p at every step ---------

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
