"""Exact ground fields: arbitrary-precision rationals and prime fields F_p.

Every computation in this package runs over a fixed GroundField chosen once
per session.  Scalars are either fractions.Fraction (characteristic zero) or
FpElement residues (characteristic p), both supporting +, -, *, /, ==, bool,
so downstream code is field-agnostic.  No floats anywhere.

The exact eliminations in linalg (RowSpace, SpanSolver, kernel_image,
cohomology_of_complex) are given the field as an argument and run on scalars
native to it: a Python int, or a Fraction only when the value is not
integral, over Q; a Python int in range(p) over F_p.  Every vector they hand
out holds Fraction or FpElement entries again, so the types above are the
only ones the rest of the package sees.
"""

from __future__ import annotations

from fractions import Fraction


def _is_probable_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for the word-sized moduli we care about
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue modulo a prime, with field arithmetic via operators."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            return FpElement(other.numerator, self.p) / FpElement(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val + other.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val - other.val, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(other.val - self.val, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.val * other.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.val * pow(other.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "FpElement(%d, %d)" % (self.val, self.p)

    def __str__(self):
        return str(self.val)


class GroundField:
    """The coefficient field of a session: Q for char 0, F_p for prime p."""

    def __init__(self, characteristic=0):
        if characteristic != 0 and not _is_probable_prime(characteristic):
            raise ValueError("characteristic must be 0 or a prime, got %r" % (characteristic,))
        self.characteristic = characteristic

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def of(self, value):
        """Coerce an int, Fraction, scalar string like "-3/4", or field element."""
        if isinstance(value, str):
            value = parse_scalar(value)
        if self.characteristic == 0:
            if isinstance(value, FpElement):
                raise ValueError("cannot coerce an F_p residue into Q")
            return Fraction(value)
        if isinstance(value, FpElement):
            if value.p != self.characteristic:
                raise ValueError("mixed moduli %d and %d" % (value.p, self.characteristic))
            return value
        if isinstance(value, Fraction):
            num = FpElement(value.numerator, self.characteristic)
            den = FpElement(value.denominator, self.characteristic)
            return num / den
        return FpElement(value, self.characteristic)

    def __eq__(self, other):
        return isinstance(other, GroundField) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("GroundField", self.characteristic))

    def __repr__(self):
        return "GroundField(%d)" % self.characteristic


def parse_scalar(text):
    """Parse "7", "-2", or "3/4" into an exact Fraction.  Floats are rejected."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_scalar(value):
    """Render a scalar as the integer-or-fraction string used in all reports."""
    if isinstance(value, FpElement):
        return str(value.val)
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return "%d/%d" % (frac.numerator, frac.denominator)
