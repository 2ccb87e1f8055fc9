"""Scalar towers for the rewriting engine.

Two interchangeable coefficient types, both exact:

* plain rationals for ordinary algebra arithmetic: ``int`` when integral,
  else ``fractions.Fraction``,
* ``TruncPoly`` for Q[t]/(t^D), the formal deformation parameter.

Element code only needs +, *, unary -, and truth testing, so the rationals
work unchanged and ``TruncPoly`` implements the same protocol.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ScalarContextMismatch

_F0 = 0
_F1 = 1


def _as_rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


class TruncPoly:
    """Polynomial in t truncated at degree D, with exact rational
    coefficients: ``int`` when integral, else ``Fraction``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, degree=None):
        if isinstance(coeffs, (int, Fraction)):
            if degree is None:
                raise ValueError("degree required for constant TruncPoly")
            c = [_F0] * degree
            c[0] = _as_rational(coeffs)
            coeffs = c
        self.coeffs = tuple(_as_rational(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("truncation degree must be >= 1")

    @property
    def degree_bound(self):
        return len(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, TruncPoly):
            if other.degree_bound != self.degree_bound:
                raise ScalarContextMismatch(
                    f"mixed truncation degrees {self.degree_bound} and {other.degree_bound}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return TruncPoly(other, self.degree_bound)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncPoly([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly([-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.degree_bound
        out = [_F0] * d
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if i + j >= d:
                    break
                if b:
                    out[i + j] += a * b
        return TruncPoly(out)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def lowest_nonzero_order(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __repr__(self):
        return f"TruncPoly({self.coeffs})"

    def text(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c} t" if c != 1 else "t")
            else:
                terms.append(f"{c} t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(terms) if terms else "0"


class FormalCtx:
    """Coefficients in Q[t]/(t^D)."""

    def __init__(self, degree):
        if degree < 1:
            raise ValueError("truncation degree must be >= 1")
        self.degree = degree

    def one(self):
        return TruncPoly(_F1, self.degree)

    def from_fraction(self, c):
        return TruncPoly(c, self.degree)

    def times_t(self, c):
        if isinstance(c, (int, Fraction)):
            c = TruncPoly(c, self.degree)
        return TruncPoly((_F0,) + c.coeffs[: self.degree - 1])

