"""Scalar towers for the rewriting engine.

Three interchangeable coefficient types, all exact:

* plain ``fractions.Fraction`` for ordinary algebra arithmetic,
* ``TruncPoly`` for Q[t]/(t^D), the formal deformation parameter,
* ``LinScalar`` for expressions  c0 + c1*t + sum_j b_j*t*x_j  in Q[t]/(t^2)
  with symbolic unknowns x_j, used to assemble cocycle constraints.

Element code only needs +, *, unary -, and truth testing, so Fraction works
unchanged and the two classes below implement the same protocol.  LinScalar
keeps every unknown multiplied by t; products of two such terms land in t^2
and vanish, which is what keeps the constraint system linear.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ScalarContextMismatch

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class TruncPoly:
    """Polynomial in t truncated at degree D, coefficients Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, degree=None):
        if isinstance(coeffs, (int, Fraction)):
            if degree is None:
                raise ValueError("degree required for constant TruncPoly")
            c = [_F0] * degree
            c[0] = _as_fraction(coeffs)
            coeffs = c
        self.coeffs = tuple(_as_fraction(c) for c in coeffs)
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


class LinScalar:
    """c0 + c1*t + sum_j lin[j]*t*x_j over Q[t]/(t^2), x_j symbolic."""

    __slots__ = ("c0", "c1", "lin")

    def __init__(self, c0=_F0, c1=_F0, lin=None):
        self.c0 = _as_fraction(c0)
        self.c1 = _as_fraction(c1)
        self.lin = {j: c for j, c in (lin or {}).items() if c}

    @staticmethod
    def unknown(j):
        # the symbol enters as x_j * t: cochain tails always carry one t
        return LinScalar(_F0, _F0, {j: _F1})

    def _coerce(self, other):
        if isinstance(other, LinScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return LinScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        lin = dict(self.lin)
        for j, c in o.lin.items():
            lin[j] = lin.get(j, _F0) + c
        return LinScalar(self.c0 + o.c0, self.c1 + o.c1, lin)

    __radd__ = __add__

    def __neg__(self):
        return LinScalar(-self.c0, -self.c1, {j: -c for j, c in self.lin.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # cross terms lin*lin and lin*c1 sit at t^2 and drop
        lin = {}
        if self.c0:
            for j, c in o.lin.items():
                lin[j] = lin.get(j, _F0) + self.c0 * c
        if o.c0:
            for j, c in self.lin.items():
                lin[j] = lin.get(j, _F0) + o.c0 * c
        return LinScalar(self.c0 * o.c0, self.c0 * o.c1 + self.c1 * o.c0, lin)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.c0 or self.c1 or self.lin)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c0 == o.c0 and self.c1 == o.c1 and self.lin == o.lin

    def __hash__(self):
        return hash((self.c0, self.c1, tuple(sorted(self.lin.items()))))

    def __repr__(self):
        return f"LinScalar({self.c0}, {self.c1}, {self.lin})"


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


class LinearCtx:
    """Coefficients affine-linear in unknowns over Q[t]/(t^2)."""

    def one(self):
        return LinScalar(_F1)

    def from_fraction(self, c):
        return LinScalar(c)

    def unknown(self, j):
        return LinScalar.unknown(j)

    def times_t(self, c):
        if isinstance(c, (int, Fraction)):
            return LinScalar(_F0, c)
        # c1 and lin parts already carry one t; another lands them in t^2
        return LinScalar(_F0, c.c0)
