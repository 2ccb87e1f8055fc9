"""Brute-force oracles that no command runs, kept for the tests.

The engine decides each question below from traced reductions in the base
system.  The oracles here decide the same questions the older, direct way,
so each test compares two independent computations:

* ``deform`` and ``verify_formal``: the system deformed over ``TruncPoly``
  coefficients in Q[t]/(t^D), every overlap resolved both ways; the oracle
  of ``deform.verify_lift``.
* ``verify_cocycle``: the same at D = 2, the first-order deformation; the
  oracle of the constraint rows that ``hochschild.verify_basis`` reads.
* ``zeroth_differential``: d^0 of a vertex cochain, by term-dict products
  and ``reduce``; d^1 d^0 = 0 checks the coboundary image.
* ``reduce_rightmost`` and ``last_redex``: a reduction that rewrites the
  rightmost redex, found by trying every tip at every position, with no
  tip index; on a confluent system it must agree with ``rewrite.reduce``.
* ``check_all_triples``: associativity on all dim^3 basis triples, and
  ``check_generator_triples``: on the triples of two basis paths and an
  arrow, read from the whole table.  Both are oracles of
  ``FiniteDimAlgebra.check_associative``, which checks the overlaps only,
  and then, to name a failure, the composable basis triples.
* ``trace_form_rank``: the rank of the Gram matrix of the trace form
  (x, y) -> Tr(L_{xy}), every trace and every Gram entry read from the
  whole multiplication table; the oracle of ``deform.semisimplicity``,
  which takes only the products the form can see.

A linear combination of paths is a zero-free term dict {path key:
coefficient}, as in the package; ``add``, ``multiply`` and
``cochain_sum`` are the arithmetic on them that the oracles and tests need.
"""

from __future__ import annotations

from fractions import Fraction

from bga.deform import FormalCheck
from bga.errors import BgaError, NonAssociative
from bga.linalg import rref
from bga.rewrite import (
    ReductionSystem,
    Rule,
    check_cochain,
    enumerate_ambiguities,
    reduce,
    resolve_overlap,
)

_F0 = 0
_F1 = 1


# -- term dicts -----------------------------------------------------------------

def add(a, b, c=1):
    """The zero-free term dict a + c * b; neither argument is changed."""
    out = dict(a)
    for k, d in b.items():
        s = out.get(k, 0) + c * d
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def multiply(quiver, a, b):
    """The product of two term dicts: the bilinear extension of path
    concatenation, in which a non-composable pair gives 0."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if k1[0] == quiver.path_target(k2):
                k = quiver.concat_key(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def cochain_sum(a, b, c=1):
    """The cochain a + c * b, value by value; a value that cancels stays,
    as an empty dict."""
    out = dict(a)
    for ri, value in b.items():
        out[ri] = add(out.get(ri, {}), value, c)
    return out


# -- truncated polynomials ------------------------------------------------------

class ScalarContextMismatch(BgaError):
    code = "ScalarContextMismatch"


def _as_rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


class TruncPoly:
    """Polynomial in t truncated at degree D, with exact rational
    coefficients: ``int`` when integral, else ``Fraction``.  It has +, *,
    unary - and truth testing, so term dicts and ``reduce`` take it as a
    coefficient unchanged."""

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

    __str__ = text


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


# -- deformed systems -----------------------------------------------------------

class DeformedSystem:
    """The deformed rules together with what they were built from."""

    __slots__ = ("base", "ctx", "system")

    def __init__(self, base, ctx, system):
        self.base = base
        self.ctx = ctx
        self.system = system


def deform(system, cochain, ctx):
    """Deform each rhs by t times the cochain value, coefficients in ctx."""
    check_cochain(system, cochain)
    rules = []
    for ri, rule in enumerate(system.rules):
        terms = {k: ctx.from_fraction(c) for k, c in rule.rhs.items()}
        value = cochain.get(ri)
        if value is not None:
            for k, c in value.items():
                s = terms.get(k)
                tc = ctx.times_t(c)
                s = tc if s is None else s + tc
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        rules.append(Rule(rule.tip, terms, info=rule.info))
    deformed = ReductionSystem(system.quiver, rules)
    return DeformedSystem(system, ctx, deformed)


def _lowest_order(c):
    if hasattr(c, "lowest_nonzero_order"):
        return c.lowest_nonzero_order()
    return 0 if c else None


def verify_formal(dsys):
    """Resolve every overlap ambiguity of the deformed system both ways.

    Equality of all the normal forms is exactly liftability of the deformed
    multiplication to the chosen truncation order.
    """
    # tips are untouched by the deformation, so the base overlaps are the
    # deformed ones as well
    ambiguities = enumerate_ambiguities(dsys.base)
    witness = None
    for amb in ambiguities:
        left, right = resolve_overlap(dsys.system, amb)
        if left != right:
            diff = add(left, right, -1)
            orders = [o for o in map(_lowest_order, diff.values())
                      if o is not None]
            witness = (amb, diff, min(orders))
            break
    return FormalCheck(witness is None, len(ambiguities), witness)


# -- cochains -------------------------------------------------------------------

def verify_cocycle(system, cochain):
    """Whether the first-order deformation along the cochain still resolves
    every 1-ambiguity; never touches the constraint rows."""
    return verify_formal(deform(system, cochain, FormalCtx(2))).passes


def zeroth_differential(system, phi):
    """1-cochain (d phi)(arrow) = NF(arrow * phi(origin) - phi(target) * arrow).

    ``phi`` maps vertices to term dicts; missing vertices count as 0.
    """
    q = system.quiver
    out = {}
    for name in sorted(q.arrows):
        o, t = q.arrows[name]
        arrow = {q.key(o, (name,)): 1}
        val = {}
        p = phi.get(o)
        if p is not None:
            val = reduce(system, multiply(q, arrow, p))
        p = phi.get(t)
        if p is not None:
            val = add(val, reduce(system, multiply(q, p, arrow)), -1)
        if val:
            out[name] = val
    return out


# -- rightmost reduction --------------------------------------------------------

def last_redex(system, word):
    """Rightmost (position, rule_index) redex, or None if irreducible: every
    tip is tried at every position, right to left."""
    for i in range(len(word) - 1, -1, -1):
        for ri, rule in enumerate(system.rules):
            tip = rule.tip[1]
            if word[i:i + len(tip)] == tip:
                return i, ri
    return None


def reduce_rightmost(system, terms):
    """Normal form of a term dict by rewriting each reducible term at its
    rightmost redex, until no term is reducible."""
    terms = dict(terms)
    todo = list(terms)
    while todo:
        key = todo.pop()
        if key not in terms:
            continue
        origin, word = key
        redex = last_redex(system, word)
        if redex is None:
            continue
        pos, ri = redex
        rule = system.rules[ri]
        left, right = word[:pos], word[pos + len(rule.tip[1]):]
        coeff = terms.pop(key)
        for (_, r_word), c in rule.rhs.items():
            k = (origin, left + r_word + right)
            s = terms.get(k, 0) + coeff * c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
            todo.append(k)
    return terms


# -- associativity --------------------------------------------------------------

def times(table, x, y):
    """Sparse product of the coordinate dicts x and y through ``table``."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: c for k, c in out.items() if c}


def check_all_triples(alg):
    """Associativity on every basis triple (i, j, k), composable or not;
    raises NonAssociative for the first failing one, with the dense
    coordinate vectors of (b_i b_j) b_k and b_i (b_j b_k)."""
    table = alg.table
    idx = range(alg.dim)
    for i in idx:
        for j in idx:
            ij = times(table, {i: 1}, {j: 1})
            for k in idx:
                lhs = times(table, ij, {k: 1})
                rhs = times(table, {i: 1}, times(table, {j: 1}, {k: 1}))
                if lhs != rhs:
                    dense = [[Fraction(v.get(n, 0)) for n in idx]
                             for v in (lhs, rhs)]
                    raise NonAssociative(
                        f"triple {i},{j},{k}: {dense[0]} != {dense[1]}")
    return True


def check_generator_triples(alg):
    """Associativity of the structure constants from the whole table;
    raises NonAssociative through ``alg._first_failure``.

    Only the triples (x, y, g) of non-idempotent basis paths x, y and an
    arrow g are checked.  Every basis path z != e(v) is z' * a with z' a
    shorter basis path (prefixes of irreducible words are irreducible) and
    a an arrow, so by induction on |z|

        (xy)z = ((xy)z')a = (x(yz'))a = x((yz')a) = x(y(z'a)) = x(yz),

    and these triples, with those whose g is an idempotent, imply all
    dim^3.  A triple that contains an idempotent always holds: e * z is z
    or 0, z * e is z or 0, and table rows are parallel to their paths.
    Only composable triples can fail, and one with x * y = 0 and y * g = 0
    has both sides 0, so only the composable triples with x * y or y * g
    nonzero are visited, each summing (xy)g - x(yg) into one dict.  So a
    triple fails here iff some basis triple fails, and then
    ``_first_failure`` names the first of all.
    """
    q = alg.quiver
    table = alg.table
    empty = {}
    paths_from = {v: [] for v in q.vertices}
    arrows_into = {v: [] for v in q.vertices}
    for i, (origin, word) in enumerate(alg.basis):
        if word:
            paths_from[origin].append(i)
            if len(word) == 1:
                arrows_into[q.target(word[0])].append(i)
    for j, kj in enumerate(alg.basis):
        if not kj[1]:
            continue
        right = [(g, table.get((j, g), empty)) for g in arrows_into[kj[0]]]
        for i in paths_from[q.path_target(kj)]:
            ij = table.get((i, j), empty)
            for g, jg in right:
                if not ij and not jg:
                    continue
                diff = {}
                for m, c in ij.items():
                    for k, d in table.get((m, g), empty).items():
                        diff[k] = diff.get(k, 0) + c * d
                for m, c in jg.items():
                    for k, d in table.get((i, m), empty).items():
                        diff[k] = diff.get(k, 0) - c * d
                if any(diff.values()):
                    alg._first_failure()
                    raise AssertionError(
                        f"triple {i},{j},{g} fails, but no first failure")
    return True


# -- the trace form ---------------------------------------------------------------

def trace_form_rank(alg):
    """Rank of the Gram matrix G_ij = Tr(L_{b_i b_j}) from the whole table:
    t_m sums the diagonal entries c_mk^k of L_{b_m}, G_ij sums
    c_ij^m t_m, and the rank is the pivot count of one ``rref``."""
    table = alg.table
    traces = {}
    for (m, k), row in table.items():
        c = row.get(k)
        if c:
            traces[m] = traces.get(m, 0) + c
    gram = {}
    for (i, j), row in table.items():
        s = sum(c * traces[m] for m, c in row.items() if m in traces)
        if s:
            gram.setdefault(i, {})[j] = s
    return len(rref(list(gram.values()), alg.dim)[1])
