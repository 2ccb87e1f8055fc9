"""Deformations of a confluent reduction system along a parallel 2-cochain.

A 2-cochain assigns to each rule a term dict of irreducible paths parallel
to its tip; ``rewrite.check_cochain`` validates it in the same way for every
check here, at every truncation degree.  Deforming replaces every right-hand
side phi(s) by phi(s) + t * psi(s), either formally (coefficients in
Q[t]/(t^D)) or at t = 1 (plain rationals).  The tips never change, so the
deformed system has the same irreducible words; what can break is
confluence, and the checks here measure exactly that.

``verify_lift`` decides the formal case from reductions in the base system
alone, one plain-rational term dict per power of t, and it is exact.
``reduce`` always rewrites a given word at the same (leftmost) redex, with
the same rule, so the deformed normal form NF is linear and it unrolls
along the base steps:

    NF(x) = NF_0(x) + t * NF(Psi(x))   mod t^D,

where NF_0 is the base normal form and Psi(x) sums c * left psi(r) right
over the base steps (c, left, r, right) that reduce x.  So the coefficient
of t^n in NF(x) is NF_0(Psi^n(x)).  ``verify_lift`` reads NF_0 and the base
steps of each path from the base system's memo, keeps that list of
per-order dicts once per path and sums these lifts for both sides of each
overlap, laid out by ``rewrite.overlap_sides``.  A monomial overlap
(both rules rewrite to 0) whose rules carry no value of the cochain is
skipped: u*v*w and v*w each reduce in one step to 0 by a rule psi leaves
alone, so Psi is 0 on both, and both lifts are empty at every order.  No
deformed system is built; a failure's witness is a term dict of plain
values, a constant or a polynomial in t as text, which only render.  The
test suite keeps the deformed system over truncated polynomials as the
independent oracle.
"""

from __future__ import annotations

from itertools import zip_longest

from . import rewrite
from .errors import NonTerminating
from .linalg import rank
from .paths import render
from .rewrite import (
    FiniteDimAlgebra,
    check_cochain,
    enumerate_ambiguities,
    overlap_sides,
)


def _witness_value(coeffs):
    """One path's coefficient in a failed lift's difference, from its
    coefficients of t^0, t^1, ...: the constant when t does not occur,
    else the polynomial in t as text."""
    if not any(coeffs[1:]):
        return coeffs[0]
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            power = "t" if i == 1 else f"t^{i}"
            terms.append(str(c) if i == 0 else power if c == 1
                         else f"{c} {power}")
    return " + ".join(terms)


class FormalCheck:
    """Outcome of resolving every overlap of the formally deformed system.

    ``witness`` is None when all overlaps agree, else a triple of the first
    failing ambiguity, the normal-form difference as a term dict, and the
    lowest t-order at which the difference is visible.
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

    def to_doc(self):
        witness = None
        if self.witness is not None:
            amb, _diff, order = self.witness
            witness = {"word": list(amb.word), "order": order,
                       "detail": self.describe()}
        return {"passes": self.passes, "ambiguities": self.n_ambiguities,
                "witness": witness}


def verify_lift(system, cochain, degree):
    """Whether the rules deformed to rhs + t * psi over Q[t]/(t^degree)
    resolve every overlap, from traced reductions in the base system; see
    the module docstring.

    The cochain is validated first by ``check_cochain``, at every degree,
    degree 1 included.  The witness of a failure is the first failing
    overlap, the difference of its two sides, and the lowest order at which
    they differ.  The difference holds, per path, its constant when t does
    not occur in it, else its polynomial in t up to the highest order either
    side reaches, as text.  An overlap
    u|v|w has left side lift(uvw), and its right side sums
    c * lift(times_u(k)) shifted by n over the terms c * k of the order n
    of lift(vw).  Lifts stop at their last nonzero order, so a nilpotent
    Psi costs the same at every large ``degree``; one that is not
    nilpotent may carry a word that grows by a letter per order, rescanned
    at each order.  So each word that Psi writes is charged its length,
    and NonTerminating is raised when one call has written more than
    ``rewrite.MAX_REDUCE_LETTERS`` letters.
    """
    check_cochain(system, cochain)
    nf = system.normal_form
    budget = rewrite.MAX_REDUCE_LETTERS
    letters = 0
    psi_memo = {}
    lift_memo = {}

    def psi(key):
        nonlocal letters
        out = psi_memo.get(key)
        if out is None:
            out = {}
            for c, origin, left, ri, right in system.steps(key):
                value = cochain.get(ri)
                if value is not None:
                    for (_, word), d in value.items():
                        k = (origin, left + word + right)
                        letters += len(k[1])
                        out[k] = out.get(k, 0) + c * d
            if letters > budget:
                raise NonTerminating(f"no formal lift within {budget} letters")
            out = psi_memo[key] = {k: c for k, c in out.items() if c}
        return out

    def lift(key):
        """NF(key) mod t^degree: the memo's own dict, then NF_0(Psi^n(key))."""
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

    ambiguities = enumerate_ambiguities(system)
    for amb in ambiguities:
        if (amb.is_monomial(system) and amb.rule_index not in cochain
                and amb.completion_index not in cochain):
            continue
        uvw, vw, times_u, _ = overlap_sides(system, amb)
        left = lift(uvw)
        sums = []
        for n, part in enumerate(lift(vw)):
            for k, c in part.items():
                for m, row in enumerate(lift(times_u(k))[:degree - n], n):
                    sums += [{} for _ in range(m + 1 - len(sums))]
                    for k2, d in row.items():
                        sums[m][k2] = sums[m].get(k2, 0) + c * d
        right = [{k: c for k, c in part.items() if c} for part in sums]
        while right and not right[-1]:
            right.pop()
        if left != right:
            by_order = list(zip_longest(left, right, fillvalue={}))
            terms = {}
            for k in sorted(set().union(*left, *right)):
                coeffs = [a.get(k, 0) - b.get(k, 0) for a, b in by_order]
                if any(coeffs):
                    terms[k] = _witness_value(coeffs)
            order = next(n for n, (a, b) in enumerate(by_order) if a != b)
            return FormalCheck(False, len(ambiguities),
                               (amb, terms, order))
    return FormalCheck(True, len(ambiguities), None)


def deformed_algebra(system, cochain):
    """The t = 1 specialization, every rhs phi(s) replaced by
    phi(s) + psi(s), as a finite-dimensional algebra.

    The cochain is validated by ``check_cochain``, which keeps the rules'
    invariants, so ``ReductionSystem.with_values`` builds the system on
    the base tip index: the tips and so the basis of irreducible words are
    the base ones.  The specialization is a well-defined algebra iff its
    structure constants are associative, which
    ``FiniteDimAlgebra.check_associative`` decides at the overlaps; it
    raises NonAssociative naming the first failing basis triple (i, j, k).
    Only that failure builds the multiplication table, to name its triple;
    otherwise only a caller that reads the table, such as the ``basis``
    command, pays for it.  ``semisimplicity`` takes its own products.
    """
    check_cochain(system, cochain)
    alg = FiniteDimAlgebra(system.with_values(cochain))
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

    def to_doc(self):
        return {"semisimple": self.semisimple, "radical_dim": self.radical_dim,
                "gram_rank": self.gram_rank}


def semisimplicity(alg):
    """Radical of the trace form (x, y) -> Tr(L_{xy}) of the left regular
    representation.

    Over the rationals the kernel of this form is the Jacobson radical, so
    the rank defect of the Gram matrix G_ij = Tr(L_{b_i b_j}) is the
    radical dimension.  The products are taken by ``alg._product_of``, and
    only those the form can see; the multiplication table is never read.

    * Only cycles have a trace.  A table row is parallel to its path, so
      t_m = Tr(L_{b_m}) is nonzero only if b_m is a cycle (origin =
      target).  The trace of an idempotent e(v) is ``len(ending_at[v])``,
      read off the basis; any other cycle at o takes one product with each
      b_k in ``ending_at[o]``.
    * The Gram matrix splits into blocks.  G_ij = sum_m c_ij^m t_m is
      nonzero only for b_i: x -> y and b_j: y -> x.  Each (x, y) block owns
      disjoint rows and disjoint columns, so the rank is the sum of the
      block ranks (``linalg.rank``).
    * Half the blocks are enough.  In an associative algebra
      L_{xy} = L_x L_y, so tau(ab) = tau(ba) for tau = Tr L, and block
      (y, x) is the transpose of block (x, y).  Only x <= y in vertex order
      is computed, and an off-diagonal block's rank counts twice.

    Precondition: the algebra is associative.  ``deformed_algebra`` has
    checked that, and the base algebra of a confluent system is.
    """
    basis, ending_at = alg.basis, alg.ending_at
    target = alg.quiver.path_target
    product = alg._product_of()
    traces = {}
    for m, km in enumerate(basis):
        o = km[0]
        if not km[1]:
            traces[m] = len(ending_at[o])
        elif target(km) == o:
            t = sum(product(km, kk).get(k, 0) for k, kk in ending_at[o])
            if t:
                traces[m] = t
    # (origin, target) -> the basis indices of the paths between them
    between = {}
    for i, ki in enumerate(basis):
        between.setdefault((ki[0], target(ki)), []).append((i, ki))
    order = {v: n for n, v in enumerate(alg.quiver.vertices)}
    gram_rank = 0
    for (x, y), rows in between.items():
        if order[x] > order[y]:
            continue
        cols = between.get((y, x), ())
        block = []
        for i, ki in rows:
            row = {}
            for j, kj in cols:
                s = sum(c * traces[m] for m, c in product(ki, kj).items()
                        if m in traces)
                if s:
                    row[j] = s
            if row:
                block.append(row)
        gram_rank += rank(block) * (1 if x == y else 2)
    return SemisimplicityReport(alg.dim, gram_rank)
