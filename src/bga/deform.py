"""Deformations of a confluent reduction system along a parallel 2-cochain.

A 2-cochain assigns to each rule an element parallel to its tip.  Deforming
replaces every right-hand side phi(s) by phi(s) + t * psi(s), either formally
(coefficients in Q[t]/(t^D)) or at t = 1 (plain rationals).  The tips never
change, so the deformed system has the same irreducible words; what can break
is confluence, and the checks here measure exactly that.

``verify_lift`` decides the formal case from reductions in the base system
alone, one plain-rational term dict per power of t, and it is exact.
``reduce`` always rewrites a given word at the same (leftmost) redex, with
the same rule, so the deformed normal form NF is linear and it unrolls
along the base steps:

    NF(x) = NF_0(x) + t * NF(Psi(x))   mod t^D,

where NF_0 is the base normal form and Psi(x) sums c * left psi(r) right
over the base steps (c, left, r, right) that reduce x.  So the coefficient
of t^n in NF(x) is NF_0(Psi^n(x)), and ``verify_lift`` keeps that list of
per-order dicts once per path and sums these lifts for both sides of each
overlap.  No deformed system is built; a failure's witness carries one
``WitnessCoeff`` per path, which only renders.  The test suite keeps the
deformed system over truncated polynomials as the independent oracle.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import NonParallelCochain, SchemaError
from .linalg import rank
from .paths import Element, render, render_key
from .rewrite import (
    FiniteDimAlgebra,
    NormalForms,
    ReductionSystem,
    Rule,
    enumerate_ambiguities,
    irreducible_words,
    overlap_sides,
)


def check_parallel(system, cochain):
    """Validate a 2-cochain: dict rule_index -> Element, each monomial of a
    value running parallel to that rule's tip."""
    q = system.quiver
    for ri, value in cochain.items():
        rule = system.rules[ri]
        o_tip = rule.tip[0]
        t_tip = q.path_target(rule.tip)
        for key in value.terms:
            if key[0] != o_tip or q.path_target(key) != t_tip:
                raise NonParallelCochain(
                    f"value on {render_key(rule.tip)} has non-parallel "
                    f"monomial {render_key(key)}")


class WitnessCoeff:
    """The coefficients of t^0, t^1, ... of one path in a failed lift's
    difference.  It is only printed: ``text`` gives the polynomial in t,
    and it equals an integer c when c is its only coefficient, so that
    ``render`` prints 1 and -1 bare."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def lowest_nonzero_order(self):
        return next((i for i, c in enumerate(self.coeffs) if c), None)

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


class FormalCheck:
    """Outcome of resolving every overlap of the formally deformed system.

    ``witness`` is None when all overlaps agree, else a triple of the first
    failing ambiguity, the normal-form difference, and the lowest t-order at
    which the difference is visible.
    """

    __slots__ = ("passes", "n_ambiguities", "witness")

    def __init__(self, passes, n_ambiguities, witness):
        self.passes = passes
        self.n_ambiguities = n_ambiguities
        self.witness = witness

    def __bool__(self):
        return self.passes

    def describe(self):
        if self.passes:
            return f"all {self.n_ambiguities} overlaps resolve"
        amb, diff, order = self.witness
        return (f"overlap {'*'.join(amb.word)} fails at order t^{order}: "
                f"difference {render(diff)}")


def _check_irreducible_values(system, cochain):
    """The SchemaError a system of the deformed rules would raise, in rule
    order, when a cochain value has a monomial that contains a tip."""
    for ri, rule in enumerate(system.rules):
        value = cochain.get(ri)
        if value is not None and any(system.first_redex(word) is not None
                                     for _, word in value.terms):
            raise SchemaError(
                f"rhs of {render_key(rule.tip)} is itself reducible")


def verify_lift(system, cochain, degree):
    """Whether the rules deformed to rhs + t * psi over Q[t]/(t^degree)
    resolve every overlap, from traced reductions in the base system; see
    the module docstring.

    The cochain is validated first: ``check_parallel``, then, when t
    survives the truncation, the SchemaError the deformed rules would
    raise for a value monomial that contains a tip.  The witness of a
    failure is the first failing overlap, the difference of its two sides
    with one ``WitnessCoeff`` per path, up to the highest order either
    side reaches, and the lowest order at which they differ.  An
    overlap u|v|w has left side lift(uvw), and its right side sums
    d_n[k] * lift(u*k) shifted by n, d_n being the orders of lift(vw).
    Lifts stop at their last nonzero order, so a nilpotent Psi costs the
    same at every large ``degree``; one that is not nilpotent may carry a
    word that grows by a letter per order, rescanned at each order, and
    then the cost is quadratic in ``degree``.
    """
    check_parallel(system, cochain)
    if degree > 1:
        _check_irreducible_values(system, cochain)
    nf = NormalForms(system, trace=True)
    psi_memo = {}
    lift_memo = {}

    def psi(key):
        out = psi_memo.get(key)
        if out is None:
            out = {}
            for c, origin, left, ri, right in nf.steps(key):
                value = cochain.get(ri)
                if value is not None:
                    for (_, word), d in value.terms.items():
                        k = (origin, left + word + right)
                        out[k] = out.get(k, 0) + c * d
            out = psi_memo[key] = {k: c for k, c in out.items() if c}
        return out

    def lift(key):
        """NF(key) mod t^degree: nf's own dict, then NF_0(Psi^n(key))."""
        out = lift_memo.get(key)
        if out is None:
            out = lift_memo[key] = [nf(key)]
            z = psi(key)
            while z and len(out) < degree:
                part, nxt = {}, {}
                for k, c in z.items():
                    for k2, d in nf(k).items():
                        part[k2] = part.get(k2, 0) + c * d
                    for k2, d in psi(k).items():
                        nxt[k2] = nxt.get(k2, 0) + c * d
                out.append({k: c for k, c in part.items() if c})
                z = {k: c for k, c in nxt.items() if c}
            while out and not out[-1]:
                out.pop()
        return out

    def lifted(key):
        """``lift(key)`` as {path key: [(n, coefficient of t^n)]}."""
        out = {}
        for n, part in enumerate(lift(key)):
            for k, c in part.items():
                out.setdefault(k, []).append((n, c))
        return out

    ambiguities = enumerate_ambiguities(system)
    for amb in ambiguities:
        uvw, _, right = overlap_sides(system, amb, lifted)
        left = lift(uvw)
        sums = []
        for k, pairs in right.items():
            for n, c in pairs:
                for m, part in enumerate(lift(k)[:degree - n], n):
                    sums += [{} for _ in range(m + 1 - len(sums))]
                    for k2, d in part.items():
                        sums[m][k2] = sums[m].get(k2, 0) + c * d
        right = [{k: c for k, c in part.items() if c} for part in sums]
        while right and not right[-1]:
            right.pop()
        if left != right:
            terms = {}
            for k in sorted(set().union(*left, *right)):
                coeffs = [a.get(k, 0) - b.get(k, 0)
                          for a, b in zip_longest(left, right, fillvalue={})]
                if any(coeffs):
                    terms[k] = WitnessCoeff(coeffs)
            order = min(c.lowest_nonzero_order() for c in terms.values())
            return FormalCheck(False, len(ambiguities),
                               (amb, Element(system.quiver, terms), order))
    return FormalCheck(True, len(ambiguities), None)


def deformed_algebra(system, cochain):
    """The t = 1 specialization, every rhs phi(s) replaced by
    phi(s) + psi(s), as a finite-dimensional algebra.

    The cochain is validated by ``check_parallel``.  Tips are unchanged,
    so the basis of irreducible words is the base one.  The specialization
    is a well-defined algebra iff its structure constants are associative,
    and that is checked on the triples (x, y, g) with x, y basis paths and
    g an idempotent or an arrow only: every other basis path is z = z' * a
    with z' a shorter basis path and a an arrow, and induction on |z| gives
    (xy)z = ((xy)z')a = (x(yz'))a = x((yz')a) = x(y(z'a)) = x(yz).
    NonAssociative is raised when a triple fails, naming the first failing
    basis triple of the full scan.
    """
    check_parallel(system, cochain)
    rules = []
    for ri, rule in enumerate(system.rules):
        rhs = rule.rhs
        value = cochain.get(ri)
        if value is not None:
            rhs = rhs + value
        rules.append(Rule(rule.tip, rhs, info=rule.info))
    at_one = ReductionSystem(system.quiver, rules, word_cap=system.word_cap)
    alg = FiniteDimAlgebra(at_one, irreducible_words(at_one))
    alg.check_generator_triples()
    return alg


class SemisimplicityReport:
    __slots__ = ("dim", "gram_rank", "radical_dim", "semisimple")

    def __init__(self, dim, gram_rank):
        self.dim = dim
        self.gram_rank = gram_rank
        self.radical_dim = dim - gram_rank
        self.semisimple = self.radical_dim == 0

    def __bool__(self):
        return self.semisimple


def semisimplicity(alg):
    """Radical of the trace form of the left regular representation.

    Over the rationals the kernel of this form is the Jacobson radical, so
    the rank defect of the Gram matrix is the radical dimension.
    """
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
    return SemisimplicityReport(alg.dim, rank(list(gram.values())))
