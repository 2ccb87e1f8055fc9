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
of t^n in NF(sum_i t^i y_i) is NF_0(z_n) with z_0 = y_0 and
z_n = Psi(z_(n-1)) + y_n.  ``deform`` and ``verify_formal`` resolve the
overlaps of the deformed system over ``TruncPoly`` coefficients instead;
they stay as the independent oracle, and ``TruncPoly`` is otherwise only
the coefficient type of a failure's witness.
"""

from __future__ import annotations

from .errors import NonParallelCochain, SchemaError
from .linalg import rank
from .paths import Element, render, render_key
from .rewrite import (
    FiniteDimAlgebra,
    NormalForms,
    ReductionSystem,
    Rule,
    _combine,
    enumerate_ambiguities,
    irreducible_words,
    overlap_sides,
    resolve_overlap,
)
from .scalars import TruncPoly


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

    __slots__ = ("base", "ctx", "system")

    def __init__(self, base, ctx, system):
        self.base = base
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
    return DeformedSystem(system, ctx, deformed)


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


def verify_formal(dsys):
    """Resolve every overlap ambiguity of the deformed system both ways.

    Equality of all the normal forms is exactly liftability of the deformed
    multiplication to the chosen truncation order.
    """
    # tips are untouched by the deformation, so the base overlaps are the
    # deformed ones as well
    ambiguities = enumerate_ambiguities(dsys.base)
    nf = NormalForms(dsys.system)
    witness = None
    for amb in ambiguities:
        left, right = resolve_overlap(nf, amb)
        if left != right:
            diff = left - right
            orders = [o for o in map(_lowest_order, diff.terms.values())
                      if o is not None]
            witness = (amb, diff, min(orders))
            break
    return FormalCheck(witness is None, len(ambiguities), witness)


def _check_irreducible_values(system, cochain):
    """The SchemaError the deformed rules raise, in rule order, when a
    cochain value has a monomial that contains a tip."""
    for ri, rule in enumerate(system.rules):
        value = cochain.get(ri)
        if value is not None and any(system.first_redex(word) is not None
                                     for _, word in value.terms):
            raise SchemaError(
                f"rhs of {render_key(rule.tip)} is itself reducible")


def verify_lift(system, cochain, degree):
    """``verify_formal(deform(system, cochain, FormalCtx(degree)))``, from
    traced reductions in the base system; see the module docstring.

    The cochain is validated as ``deform`` does: ``check_parallel`` first,
    then, when t survives the truncation, the SchemaError the deformed
    rules would raise for a value monomial that contains a tip.  The
    witness of a failure is built as ``verify_formal`` builds it.
    """
    check_parallel(system, cochain)
    if degree > 1:
        _check_irreducible_values(system, cochain)
    q = system.quiver
    nf = NormalForms(system, trace=True)
    psi_memo = {}

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

    def normal_form(parts):
        """Per-order normal forms of sum t^n parts[n], mod t^degree.  z is
        never changed in place, so it may be one of the parts."""
        out = []
        z = {}
        for n in range(degree):
            if z:
                z = _combine((c, psi(k)) for k, c in z.items())
            if n < len(parts) and parts[n]:
                z = _combine(((1, z), (1, parts[n]))) if z else parts[n]
            out.append(_combine((c, nf(k)) for k, c in z.items()) if z else {})
        return out

    def lifted(key):
        """NF(key) mod t^degree as {path key: [coefficient of t^n]}."""
        out = {}
        for n, part in enumerate(normal_form([{key: 1}])):
            for k, c in part.items():
                out.setdefault(k, [0] * degree)[n] = c
        return out

    ambiguities = enumerate_ambiguities(system)
    for amb in ambiguities:
        # left: NF(u*v*w), whose first step rewrites the tip uv to
        # rhs(uv) + t psi(uv); right: NF(u * NF(v*w)), one part per order
        uvw, _, right = overlap_sides(system, amb, lifted)
        left = normal_form([{uvw: 1}])
        right = normal_form([{k: cs[n] for k, cs in right.items() if cs[n]}
                             for n in range(degree)])
        if left != right:
            terms = {}
            for k in sorted(set().union(*left, *right)):
                coeffs = [a.get(k, 0) - b.get(k, 0)
                          for a, b in zip(left, right)]
                if any(coeffs):
                    terms[k] = TruncPoly(coeffs)
            order = min(c.lowest_nonzero_order() for c in terms.values())
            return FormalCheck(False, len(ambiguities),
                               (amb, Element(q, terms), order))
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
