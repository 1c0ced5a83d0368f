"""Double-double arithmetic on float64 arrays.

A :class:`DD` holds the unevaluated sum ``hi + lo`` of two float64 arrays
of any shape, with ``|lo| <= ulp(hi) / 2``: about 106 significant bits,
31 decimal digits (:data:`DIGITS`).  Its ``hi`` is the float64 rounding of
the pair.  It knows ``+``, ``-``, ``*``, ``/`` and integer powers, so it
evaluates rational fields (the reduced metrics whose curvature cancels like
``1/r**2`` near a polar origin) through the jets unchanged.

The error-free transformations are Knuth's TwoSum and Dekker's TwoProd
with Veltkamp's split (Dekker, Numer. Math. 18 (1971) 224-242); the sum is
the accurate add and the quotient the three-step divide of the QD library
(Hida, Li and Bailey, ARITH-15, 2001).  Veltkamp's split multiplies by
``2**27 + 1``, so a product with a factor above about ``1e300`` comes out
NaN; :func:`hkgeo.geometry.gaussian_curvature` rejects a NaN metric and a
non-finite curvature with typed errors.

Two rules skip work whose result is known, and change no value.  A float
operand ``f`` (a Python float, a 0-d or any float64 array) is the
double-double ``DD(f, 0.0)``, and the terms of its zero low part are
skipped: a sum with it is one TwoSum and one renormalisation, a product
with it has no ``hi * 0.0`` term, and each gives the value of the full
rule (a zero low part may differ in sign).  And the Python int ``0`` is the
exact zero: ``x + 0`` and ``x - 0`` are ``x`` itself, ``0 - x`` is ``-x``
and ``x * 0`` is ``0``, with no arithmetic, so an expression that meets it
rounds as its other operands alone would
(:func:`hkgeo.geometry._curvature` reads its exact-zero entries so).  A
scalar float zero (``0.0`` or ``-0.0``, such as ``0 * 0.5``) is an
identity of ``+`` and ``-`` too, but a product with it still computes, so
a non-finite operand still gives NaN.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DD", "DIGITS"]

#: Decimal digits a double-double serves.
DIGITS = 31

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _quick_two_sum(a, b):
    """TwoSum for ``|a| >= |b|``."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _parts(x):
    """``(hi, lo)`` of a DD, or of a float (array) exactly."""
    return (x.hi, x.lo) if isinstance(x, DD) else (x, 0.0)


class DD:
    """Double-double numbers: ``hi + lo``, float64 arrays of one shape.

    Operands may be DDs, floats or float arrays (taken exactly, with the
    terms of their zero low part skipped), or the exact zero ``0``, which
    ``+``, ``-`` and ``*`` answer without arithmetic, as ``+`` and ``-``
    answer a scalar float zero (module docstring);
    shapes broadcast as numpy's do.  Indexing reads and writes both parts.
    """

    __slots__ = ("hi", "lo")

    # numpy defers to the DD's operators: ``array * dd`` calls ``__rmul__``
    __array_ufunc__ = None

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape), np.zeros(shape))

    @property
    def shape(self):
        return np.shape(self.hi)

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, index):
        return DD(self.hi[index], self.lo[index])

    def __setitem__(self, index, value):
        self.hi[index], self.lo[index] = _parts(value)

    def map(self, f, *args):
        """``f(part, *args)`` for both parts: for moves and negations only."""
        return DD(f(self.hi, *args), f(self.lo, *args))

    def swapaxes(self, i, j):
        return self.map(np.swapaxes, i, j)

    @property
    def T(self):
        return self.map(np.transpose)

    def reshape(self, *shape):
        return self.map(lambda a: a.reshape(*shape))

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        if type(other) in (int, float) and other == 0:  # 0, or a scalar float zero
            return self
        if not isinstance(other, DD):  # a float's low part is zero: one TwoSum
            s, e = _two_sum(self.hi, other)
            return DD(*_quick_two_sum(s, e + self.lo))
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        s, e = _quick_two_sum(s, e + t)
        return DD(*_quick_two_sum(s, e + f))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int and other == 0:  # the exact zero
            return 0
        if not isinstance(other, DD):  # a float's low part is zero: no hi * lo term
            p, e = _two_prod(self.hi, other)
            return DD(*_quick_two_sum(p, e + self.lo * other))
        p, e = _two_prod(self.hi, other.hi)
        return DD(*_quick_two_sum(p, e + (self.hi * other.lo + self.lo * other.hi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = other if isinstance(other, DD) else DD(other, 0.0)
        q1 = self.hi / b.hi
        r = self - b * q1
        q2 = r.hi / b.hi
        r = r - b * q2
        return DD(*_quick_two_sum(q1, q2)) + r.hi / b.hi

    def __rtruediv__(self, other):
        return DD(other, 0.0) / self

    def __pow__(self, k):
        """Integer powers, by repeated products (the jets' ``x ** k`` rule)."""
        if k != int(k):
            raise TypeError("double-double powers must be integers")
        if k < 0:
            return 1.0 / self ** -k
        out = self * 0.0 + 1.0
        for _ in range(int(k)):
            out = out * self
        return out
