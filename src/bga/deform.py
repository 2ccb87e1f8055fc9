"""Deformations of a confluent reduction system along a parallel 2-cochain.

A 2-cochain assigns to each rule an element parallel to its tip.  Deforming
replaces every right-hand side phi(s) by phi(s) + t * psi(s), either formally
(coefficients in Q[t]/(t^D)) or at t = 1 (plain rationals).  The tips never
change, so the deformed system has the same irreducible words; what can break
is confluence, and the checks here measure exactly that.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonParallelCochain
from .linalg import rank
from .paths import Element, render, render_key
from .rewrite import (
    MAX_REDUCE_STEPS,
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    enumerate_ambiguities,
    irreducible_words,
    resolve_overlap,
)

_F0 = Fraction(0)


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


class DeformedSystem:
    """The deformed rules together with what they were built from."""

    __slots__ = ("base", "cochain", "ctx", "system")

    def __init__(self, base, cochain, ctx, system):
        self.base = base
        self.cochain = cochain
        self.ctx = ctx
        self.system = system


def deform(system, cochain, ctx):
    """Deform each rhs by t times the cochain value, coefficients in ctx."""
    check_parallel(system, cochain)
    rules = []
    for ri, rule in enumerate(system.rules):
        terms = {k: ctx.from_fraction(c) for k, c in rule.rhs.terms.items()}
        value = cochain.get(ri)
        if value is not None:
            for k, c in value.terms.items():
                s = terms.get(k)
                tc = ctx.times_t(c)
                s = tc if s is None else s + tc
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        rules.append(Rule(rule.tip, Element(system.quiver, terms),
                          info=rule.info))
    deformed = ReductionSystem(system.quiver, rules, word_cap=system.word_cap)
    return DeformedSystem(system, dict(cochain), ctx, deformed)


def _lowest_order(c):
    if hasattr(c, "lowest_nonzero_order"):
        return c.lowest_nonzero_order()
    return 0 if c else None


class FormalCheck:
    """Outcome of resolving every overlap in the deformed system.

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


def verify_formal(dsys, max_steps=MAX_REDUCE_STEPS):
    """Resolve every overlap ambiguity of the deformed system both ways.

    Equality of all the normal forms is exactly liftability of the deformed
    multiplication to the chosen truncation order.
    """
    one = dsys.ctx.one()
    # tips are untouched by the deformation, so the base overlaps are the
    # deformed ones as well
    ambiguities = enumerate_ambiguities(dsys.base)
    witness = None
    for amb in ambiguities:
        left, right = resolve_overlap(dsys.system, amb, one, max_steps)
        if left != right:
            diff = left - right
            orders = [o for o in map(_lowest_order, diff.terms.values())
                      if o is not None]
            witness = (amb, diff, min(orders))
            break
    return FormalCheck(witness is None, len(ambiguities), witness)


def deformed_algebra(dsys, max_steps=MAX_REDUCE_STEPS):
    """The t = 1 specialization as a finite-dimensional algebra.

    Tips are unchanged, so the basis of irreducible words is the base one;
    associativity of the resulting structure constants is checked on all
    basis triples and NonAssociative raised when the specialization fails
    to be a well-defined algebra.
    """
    base = dsys.base
    rules = []
    for ri, rule in enumerate(base.rules):
        rhs = rule.rhs
        value = dsys.cochain.get(ri)
        if value is not None:
            rhs = rhs + value
        rules.append(Rule(rule.tip, rhs, info=rule.info))
    at_one = ReductionSystem(base.quiver, rules, word_cap=base.word_cap)
    alg = FiniteDimAlgebra(at_one, irreducible_words(at_one))
    alg.check_associative()
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
    n = alg.dim
    traces = [_F0] * n
    for m in range(n):
        t = _F0
        for k in range(n):
            row = alg.table.get((m, k))
            if row:
                t += row.get(k, _F0)
        traces[m] = t
    gram = []
    for i in range(n):
        grow = []
        for j in range(n):
            row = alg.table.get((i, j))
            s = _F0
            if row:
                for m, c in row.items():
                    s += c * traces[m]
            grow.append(s)
        gram.append(grow)
    return SemisimplicityReport(n, rank(gram, n))
