"""Exact coefficient arithmetic: Q and a single quadratic extension Q(sqrt(d)).

A Scalar is a + b*sqrt(d) with a, b rational and d one canonical int per
field: the radicand s of sqrt(d) = k*sqrt(s) from `_radical`, so that
Scalar(0, 1, 8) is 2*sqrt(2) and Scalar(0, 1, 1/2) is 1/2*sqrt(2).  Scalars
from different extensions only mix when one of them is plain rational
(b = 0).  Perfect-square discriminants collapse to Q at construction, so
pure-rational computations never carry an extension around (d = 0 there).
Towers of extensions are rejected: sqrt of a proper extension element that
does not land back in the field is simply unavailable (is_square returns
None).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .errors import IncompatibleField, ResourceLimit

_F0 = Fraction(0)
_LOG10_2 = math.log10(2)
_SQUARE_SEARCH = 2 ** 15


@functools.lru_cache(maxsize=4096)
def _sqrt_fraction(f):
    """Exact rational square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@functools.lru_cache(maxsize=4096)
def _radical(d):
    """(k, s) with sqrt(d) = k*sqrt(s) for a rational d: k rational and s an
    int, 1 when d is a square, else with the square factors i^2 for
    i < _SQUARE_SEARCH taken out, and a remainder that is a square, so that
    no input makes the search long.  sqrt(s) for s < 0 is i*sqrt(-s)."""
    d = Fraction(d)
    n = abs(d.numerator) * d.denominator  # sqrt(|d|) = sqrt(n) / denominator
    k, i = 1, 2
    while i < _SQUARE_SEARCH and i * i <= n:
        while n % (i * i) == 0:
            n //= i * i
            k *= i
        i += 1
    r = math.isqrt(n)
    if r * r == n:
        k, n = k * r, 1
    k = k if d.denominator == 1 else Fraction(k, d.denominator)
    return k, -n if d < 0 else n


class Scalar:
    """Immutable element a + b*sqrt(d) of Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if b == 0:
            d = 0
        else:
            k, d = _radical(d)
            if d == 1:
                a, b, d = a + b * k, _F0, 0
            elif k != 1:
                b = b * k
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x):
        s = Scalar._operand(x)
        if s is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} to Scalar")
        return s

    @staticmethod
    def _operand(x):
        """x as the other operand of a binary operator, or NotImplemented
        when it is not a number, so that Python tries the reflected method
        of x (a polynomial's, say) and otherwise raises its own TypeError."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        return NotImplemented

    def _join(self, other):
        """Common discriminant for an operation, or raise."""
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise IncompatibleField(f"sqrt({self.d}) vs sqrt({other.d})")

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_rational(self):
        return self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # A rational Scalar equals its Fraction (and an integral one its int),
        # so it must hash as that number does.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Scalar._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.b or other.b):
            return Scalar(self.a + other.a, _F0)
        d = self._join(other)
        return Scalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = Scalar._operand(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = Scalar._operand(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        other = Scalar._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.b or other.b):
            return Scalar(self.a * other.a, _F0)
        d = self._join(other)
        return Scalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        if not self.b:
            return Scalar(1 / self.a, _F0)
        n = self.a * self.a - self.b * self.b * self.d
        # n is the field norm; nonzero for nonzero elements of a real or
        # imaginary quadratic field with non-square d.
        return Scalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        other = Scalar._operand(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._operand(other)
        return NotImplemented if other is NotImplemented else other * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        r = Scalar(1)
        base = self
        while k:
            if k & 1:
                r = r * base
            base = base * base
            k >>= 1
        return r

    def conjugate(self):
        return Scalar(self.a, -self.b, self.d)

    # -- square roots inside the field ------------------------------------

    def sqrt_in_field(self, field_d=None):
        """A Scalar t with t*t == self, staying inside Q(sqrt(field_d)).

        field_d defaults to this scalar's own discriminant.  Returns None
        when no such square root exists in the field.
        """
        if field_d is None:
            field_d = self.d
        field_d = Fraction(field_d)
        if self.is_zero():
            return Scalar(0)
        if self.b == 0:
            r = _sqrt_fraction(self.a)
            if r is not None:
                return Scalar(r)
            if field_d != 0 and self.a != 0:
                q2 = self.a / field_d
                q = _sqrt_fraction(q2)
                if q is not None:
                    return Scalar(0, q, field_d)
            return None
        # self = a + b*sqrt(d), b != 0: solve (p + q*sqrt(d))^2 = self.
        # p^2 + q^2 d = a and 2pq = b  =>  p^2 solves X^2 - aX + b^2 d/4 = 0.
        disc = self.a * self.a - self.b * self.b * self.d
        rd = _sqrt_fraction(disc)
        if rd is None:
            return None
        for p2 in ((self.a + rd) / 2, (self.a - rd) / 2):
            p = _sqrt_fraction(p2)
            if p is not None and p != 0:
                q = self.b / (2 * p)
                cand = Scalar(p, q, self.d)
                if cand * cand == self:
                    return cand
        return None

    # -- embedding --------------------------------------------------------

    def to_complex(self):
        return embed_complex(self)

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def digits(self):
        """Decimal digits of the numerators and denominators of a and b,
        counted from bit lengths, so up to one too many for each."""
        return sum(int(n.bit_length() * _LOG10_2) + 1 for n in (
            self.a.numerator, self.a.denominator, self.b.numerator, self.b.denominator))

    def __str__(self):
        try:
            return self._text()
        except ValueError:  # Python refuses int -> str past 4300 digits
            raise ResourceLimit(
                f"printing a coefficient whose numerators and denominators have"
                f" {self.digits()} digits, past Python's int to str limit") from None

    def _text(self):
        if self.b == 0:
            return str(self.a)
        parts = []
        if self.a != 0:
            parts.append(str(self.a))
        bs = f"{self.b}*sqrt({self.d})"
        if self.b == 1:
            bs = f"sqrt({self.d})"
        elif self.b == -1:
            bs = f"-sqrt({self.d})"
        if parts and self.b > 0:
            parts.append("+ " + bs)
        elif parts:
            parts.append("- " + bs.lstrip("-"))
        else:
            parts.append(bs)
        return " ".join(parts)


ZERO = Scalar(0)
ONE = Scalar(1)


def embed_complex(x):
    """Lossy embedding Q(sqrt(d)) -> complex doubles."""
    x = Scalar.coerce(x)
    if x.b == 0:
        return complex(float(x.a), 0.0)
    s = cmath.sqrt(complex(float(x.d), 0.0))
    return complex(float(x.a), 0.0) + float(x.b) * s

