"""Second Hochschild cohomology of the quotient of a confluent system.

A 2-cochain assigns to each rule an algebra element parallel to its tip
(same origin and target).  The coordinate system runs over all pairs
(rule, parallel irreducible basis path), tips in rule order and parallels
in basis order, so every report is deterministic.

A cochain psi is a cocycle iff deforming every rhs to rhs + t * psi
resolves each tip-on-tip overlap to first order in t.  Both linear maps are
built from reductions in the base system alone, with exact rational
coefficients:

* cocycle constraints: each overlap is resolved both ways by
  ``rewrite.overlap_sides`` through one ``NormalForms`` memo that keeps the
  reduce steps of every path; an unknown coordinate (rule r, path p)
  contributes the normal form of ``left p right`` for every step that
  rewrote the tip of r between ``left`` and ``right`` (see
  ``cocycle_space`` for why this is the order-t part of the deformed
  reduction);
* coboundaries: the arrow-indexed 1-cochains are substituted into the
  letter occurrences of every tip - rhs.

``hh2`` keeps the constraint rows, and ``verify_basis`` tests a cochain
for being a cocycle against them.  The test suite keeps the independent
oracle, which resolves the overlaps of the deformed system instead.

For algebras built from a bipartite Brauer graph, the closed dimension count
and the explicit standard cocycle family are available as cross-checks.
"""

from __future__ import annotations

from .deform import check_parallel
from .errors import (
    NonParallelCochain,
    NotApplicable,
    RequiresConfluentSystem,
)
from .linalg import kernel_basis, quotient, rank, residual, rref
from .paths import Element, element_to_doc
from .presentation import cycle_word, dimension_formula
from .rewrite import (
    NormalForms,
    enumerate_ambiguities,
    overlap_sides,
    reduce,  # noqa: F401 - bench/tests reads the binding hochschild.reduce
    resolve_overlap,
)
from .ribbon import spanning_tree

_F1 = 1


# -- coordinates --------------------------------------------------------------

def parallel_paths(alg):
    """{(origin, target): basis keys}, each list in basis order."""
    q = alg.quiver
    out = {}
    for k in alg.basis:
        out.setdefault((k[0], q.path_target(k)), []).append(k)
    return out


def cochain_space(system, alg):
    """Ordered coordinate system for 2-cochains.

    One coordinate per (rule, parallel basis path) pair; the list length is
    the cochain dimension.
    """
    q = alg.quiver
    parallel = parallel_paths(alg)
    out = []
    for ri, rule in enumerate(system.rules):
        for key in parallel.get((rule.tip[0], q.path_target(rule.tip)), ()):
            out.append((ri, key))
    return out


def cochain_from_vector(alg, coords, vec):
    """Cochain dict rule_index -> Element from a sparse coordinate vector."""
    terms = {}
    for j, c in sorted(vec.items()):
        ri, key = coords[j]
        terms.setdefault(ri, {})[key] = c
    return {ri: Element(alg.quiver, t) for ri, t in terms.items()}


def vector_from_cochain(system, coords, cochain):
    """Sparse coordinate vector {j: c} of a cochain; every monomial must be
    a parallel irreducible basis path."""
    check_parallel(system, cochain)
    index = {pair: j for j, pair in enumerate(coords)}
    vec = {}
    for ri, value in cochain.items():
        for key, c in value.terms.items():
            j = index.get((ri, key))
            if j is None:
                raise NonParallelCochain(
                    f"monomial {key!r} on rule {ri} is not an irreducible "
                    "basis path")
            vec[j] = c
    return vec


def cochain_values_doc(system, cochain):
    """JSON-friendly list of the nonzero values, in rule order."""
    out = []
    for ri in sorted(cochain):
        value = cochain[ri]
        if not value:
            continue
        out.append({"tip": list(system.rules[ri].tip[1]),
                    "element": element_to_doc(value)})
    return out


# -- differentials ------------------------------------------------------------

def _letter_occurrences(system):
    """{arrow: [(rule_index, coeff, origin, left, right)]} over every letter
    of every monomial of tip - rhs: the tip with coefficient +1, the rhs
    monomials negated, ``left`` and ``right`` the words around the letter."""
    out = {}
    for ri, rule in enumerate(system.rules):
        monomials = [(rule.tip, _F1)]
        monomials += [(k, -c) for k, c in rule.rhs.terms.items()]
        for (origin, word), c in monomials:
            for i, letter in enumerate(word):
                out.setdefault(letter, []).append(
                    (ri, c, origin, word[:i], word[i + 1:]))
    return out


def one_cochain_coords(alg):
    """(arrow, parallel basis path) pairs: arrows by name, parallels in
    basis order."""
    parallel = parallel_paths(alg)
    out = []
    for name in sorted(alg.quiver.arrows):
        for key in parallel.get(alg.quiver.arrows[name], ()):
            out.append((name, key))
    return out


def coboundary_image(system, alg, coords=None, nf=None):
    """Spanning set of the coboundary subspace in cochain coordinates.

    One vector per ``one_cochain_coords`` pair (arrow, path): the first
    differential of that 1-cochain.  Each occurrence of the arrow in
    tip - rhs is replaced by the path, and the word so made is reduced once;
    ``nf`` is a ``NormalForms`` memo to share with the cocycle rows.
    """
    if coords is None:
        coords = cochain_space(system, alg)
    if nf is None:
        nf = NormalForms(system)
    index = {pair: j for j, pair in enumerate(coords)}
    occurrences = _letter_occurrences(system)
    vecs = []
    for name, (_, path) in one_cochain_coords(alg):
        vec = {}
        for ri, c, origin, left, right in occurrences.get(name, ()):
            for k, d in nf((origin, left + path + right)).items():
                j = index[(ri, k)]
                vec[j] = vec.get(j, 0) + c * d
        vecs.append({j: c for j, c in vec.items() if c})
    return vecs


# -- cocycles -----------------------------------------------------------------

def _cocycle_rows(system, coords, nf):
    """Constraint rows {j: c}: per overlap, one row for each normal-form key
    at which the order-t parts of the two resolutions differ, keys in order.

    Unknown j = (rule r, path p) enters the rhs of r as t * x_j * p.  A base
    step c * left (tip r) right then adds c * t * x_j * left p right; the
    t-part of a resolution is the normal form of the sum over its steps.
    The steps are the traces ``nf`` keeps for the ``overlap_sides`` keys:
    u*v*w on the left; v*w under the prefix u, then u*NF(v*w) on the right.
    """
    by_rule = {}
    for j, (ri, (_, p)) in enumerate(coords):
        by_rule.setdefault(ri, []).append((j, p))
    rows = []
    for amb in enumerate_ambiguities(system):
        uvw, vw, right = overlap_sides(system, amb, nf)
        steps = list(nf.steps(uvw))
        steps += [(-c, o, (amb.u,) + lw, ri, rw)
                  for c, o, lw, ri, rw in nf.steps(vw)]
        steps += [(-e * c, o, lw, ri, rw) for k, e in right.items()
                  for c, o, lw, ri, rw in nf.steps(k)]
        diff = {}
        for c, o, lw, ri, rw in steps:
            for j, p in by_rule.get(ri, ()):
                for k, d in nf((o, lw + p + rw)).items():
                    row = diff.setdefault(k, {})
                    row[j] = row.get(j, 0) + c * d
        for k in sorted(diff):
            row = {j: c for j, c in diff[k].items() if c}
            if row:
                rows.append(row)
    return rows


def cocycle_space(system, alg, nf=None):
    """The cochain coordinates and the cocycle constraint rows.

    A cochain psi is a cocycle iff deforming every rhs to rhs + t * psi
    resolves each overlap u|v|w to first order in t.  The constraints come
    from reductions in the base system only, and they are exact:

    * t^2 = 0, so a t-term, once made, is rewritten by base rules only;
    * the base system is confluent, so its normal form is linear and the
      t-part of a resolution is the normal form of what its steps add;
    * reduce always rewrites the smallest reducible key, so the steps on
      the constant part of a deformed reduction are, one for one, the
      steps of the base reduction, and a word is rewritten the same way
      wherever it occurs, so each path's steps may come from the memo.

    Returns (coords, rows): a cochain vector over ``coords`` is a cocycle
    iff its dot product with every row is 0, so the cocycle space is
    ``kernel_basis(rows, len(coords))``.  The overlaps are resolved before
    the coordinates are listed, so a system with an unresolved overlap
    raises RequiresConfluentSystem first.  ``nf`` is a ``NormalForms``
    memo built with ``trace=True``, to share with the coboundary image.
    """
    if nf is None:
        nf = NormalForms(system, trace=True)
    unresolved = sum(left != right for left, right in (
        resolve_overlap(nf, amb) for amb in enumerate_ambiguities(system)))
    if unresolved:
        raise RequiresConfluentSystem(f"{unresolved} unresolved overlaps")
    coords = cochain_space(system, alg)
    return coords, _cocycle_rows(system, coords, nf)


# -- the quotient -------------------------------------------------------------

class HH2Report:
    """Dimension data and normalized representatives of the quotient.

    ``rows`` are the cocycle constraint rows, so a cochain vector is a
    cocycle iff its dot product with each of them is 0.  ``coboundaries``
    is the eliminated coboundary image, the (rows, pivots) pair of
    ``rref``.  Both are kept so that cochains can be tested later.
    """

    __slots__ = ("system", "alg", "coords", "rows", "cochain_dim",
                 "cocycle_dim", "coboundaries", "coboundary_dim", "hh2_dim",
                 "formula", "formula_matches", "representatives")

    def __init__(self, system, alg, coords, rows, cocycle_dim, coboundaries,
                 formula, formula_matches, representatives):
        self.system = system
        self.alg = alg
        self.coords = coords
        self.rows = rows
        self.cochain_dim = len(coords)
        self.cocycle_dim = cocycle_dim
        self.coboundaries = coboundaries
        self.coboundary_dim = len(coboundaries[1])
        self.hh2_dim = len(representatives)
        self.formula = formula
        self.formula_matches = formula_matches
        self.representatives = representatives

    def to_doc(self):
        basis = []
        for vec in self.representatives:
            cochain = cochain_from_vector(self.alg, self.coords, vec)
            basis.append({"tag": "generic",
                          "values": cochain_values_doc(self.system, cochain)})
        return {
            "cochain_dim": self.cochain_dim,
            "cocycle_dim": self.cocycle_dim,
            "coboundary_dim": self.coboundary_dim,
            "hh2_dim": self.hh2_dim,
            "formula": self.formula,
            "formula_matches": self.formula_matches,
            "basis": basis,
        }


def hh2(system, alg, graph=None):
    """Cocycles modulo coboundaries, with the closed count when a bipartite
    (or two-vertex local) graph is supplied.

    The overlap resolutions in ``cocycle_space`` are also the confluence
    check.  Both linear maps share one normal-form memo, which keeps the
    reduce steps the cocycle rows are read from.
    """
    nf = NormalForms(system, trace=True)
    coords, rows = cocycle_space(system, alg, nf)
    cocycles = kernel_basis(rows, len(coords))
    red, pivots = rref(coboundary_image(system, alg, coords, nf))
    reps = quotient(red, pivots, cocycles)
    formula = matches = None
    if graph is not None:
        try:
            formula = dimension_formula(graph)
            matches = formula == len(reps)
        except NotApplicable:
            pass
    return HH2Report(system, alg, coords, rows, len(cocycles), (red, pivots),
                     formula, matches, reps)


# -- the standard family ------------------------------------------------------

class StandardCocycle:
    """A named member of the explicit cocycle family.

    ``kind`` is one of A, B, C, D1, D2; ``tag`` collapses D1/D2 to D.
    """

    __slots__ = ("kind", "label", "cochain")

    def __init__(self, kind, label, cochain):
        self.kind = kind
        self.label = label
        self.cochain = cochain

    @property
    def tag(self):
        return "D" if self.kind in ("D1", "D2") else self.kind

    def to_doc(self, system):
        return {"tag": self.tag, "kind": self.kind, "label": self.label,
                "values": cochain_values_doc(system, self.cochain)}

    def __repr__(self):
        return f"StandardCocycle({self.label})"


def _rule_index(system):
    a_rule, b_rule, c_rule = {}, {}, {}
    for ri, rule in enumerate(system.rules):
        info = rule.info
        if info is None:
            raise NotApplicable(
                "rules carry no construction data (user-supplied system)")
        if info[0] == "a":
            a_rule[info[1]] = ri
        elif info[0] == "b":
            b_rule[info[1]] = ri
        else:
            c_rule[(info[1], info[2])] = ri
    return a_rule, b_rule, c_rule


def standard_cocycles(graph, bp, system):
    """The explicit cocycle family of a bipartite, non-local Brauer graph.

    Four shapes: (A) one idempotent/arrow pair spread over all rules,
    (B) one per vertex v and power 1 <= i < m(v), (C) one per non-tree edge,
    (D) two per bigon half-edge pair.  Counts are 1, sum(m(v)-1),
    |E|-|V|+1, and the number of ordered vanishing 2-cycles.
    """
    if len(graph.edge_ids()) == 1:
        raise NotApplicable("single-edge algebras have no standard family")
    a_rule, b_rule, c_rule = _rule_index(system)
    q = system.quiver
    out = []

    # (A): the unit shift.  +e on every cycle-commutation tip, -(last arrow)
    # on every vanishing-power tip, 0 elsewhere.
    values = {}
    for edge, ri in sorted(a_rule.items()):
        values[ri] = Element.idempotent(q, system.rules[ri].tip[0])
    for h, ri in sorted(b_rule.items()):
        last = system.rules[ri].tip[1][-1]
        values[ri] = Element.path(q, q.arrows[last][0], (last,),
                                  coeff=-_F1)
    out.append(StandardCocycle("A", "A", values))

    # (B): multiplicity-lowering cycle terms, one per (vertex, power).
    for v in sorted(graph.vertices()):
        m = graph.multiplicity[v]
        for i in range(1, m):
            values = {}
            if bp.side(v) == 1:
                for edge, ri in sorted(a_rule.items()):
                    h1 = system.rules[ri].info[2]
                    if graph.incidence[h1] == v:
                        word = cycle_word(graph, h1, i)
                        values[ri] = Element.path(
                            q, q.arrows[word[-1]][0], word)
            else:
                for edge, ri in sorted(a_rule.items()):
                    h2 = system.rules[ri].info[3]
                    if graph.incidence[h2] == v:
                        word = cycle_word(graph, h2, i)
                        values[ri] = Element.path(
                            q, q.arrows[word[-1]][0], word)
                span = i * graph.valence(v) + 1
                for h, ri in sorted(b_rule.items()):
                    if graph.incidence[h] == v:
                        word = system.rules[ri].tip[1][-span:]
                        values[ri] = Element.path(
                            q, q.arrows[word[-1]][0], word, coeff=-_F1)
            out.append(StandardCocycle("B", f"B({v},{i})", values))

    # (C): one per edge outside a spanning tree, rescaling its commutation
    # rule by its own replacement.
    tree = spanning_tree(graph)
    for edge in graph.edge_ids():
        if edge in tree:
            continue
        ri = a_rule[edge]  # cycle edges have non-truncated endpoints
        out.append(StandardCocycle(
            "C", f"C({edge})", {ri: system.rules[ri].rhs}))

    # (D): bigon terms.  A qualifying pair is h1, h2 at a part-two vertex w
    # with h2 the rotation successor of h1 and the partner halves sitting at
    # one part-one vertex v, rotation-consecutive the opposite way around.
    for w in sorted(graph.vertices()):
        if bp.side(w) != 2:
            continue
        for h1 in sorted(graph.rotation[w]):
            h2 = graph.successor(h1)
            i1, i2 = graph.pairing[h1], graph.pairing[h2]
            v = graph.incidence[i1]
            if graph.incidence[i2] != v or bp.side(v) != 1:
                continue
            if graph.successor(i2) != i1:
                continue
            e1, e2 = graph.edge_of(h1), graph.edge_of(h2)
            beta, alpha = h1, i2          # arrows e1 -> e2 and e2 -> e1
            vcyc = cycle_word(graph, i1, graph.multiplicity[v])
            astar = vcyc[1:]              # the v-cycle at e1 minus alpha
            values = {
                c_rule[(alpha, beta)]: Element.idempotent(q, e1),
                c_rule[(beta, alpha)]: Element.idempotent(q, e2),
                b_rule[h1]: Element.path(q, q.arrows[astar[-1]][0], astar),
            }
            out.append(StandardCocycle("D1", f"D1({h1},{h2})", values))
            wcyc = cycle_word(graph, h2, graph.multiplicity[w])
            values = {
                c_rule[(beta, alpha)]: Element.path(
                    q, q.arrows[wcyc[-1]][0], wcyc),
            }
            out.append(StandardCocycle("D2", f"D2({h1},{h2})", values))
    return out


# -- verification -------------------------------------------------------------

class BasisReport:
    __slots__ = ("all_cocycles", "independent", "count", "hh2_dim",
                 "complete")

    def __init__(self, all_cocycles, independent, count, hh2_dim):
        self.all_cocycles = all_cocycles
        self.independent = independent
        self.count = count
        self.hh2_dim = hh2_dim
        self.complete = all_cocycles and independent and count == hh2_dim

    def __bool__(self):
        return self.complete

    def to_doc(self):
        return {"all_cocycles": self.all_cocycles,
                "independent_mod_coboundaries": self.independent,
                "count": self.count, "hh2_dim": self.hh2_dim,
                "complete": self.complete}


def _satisfies(rows, vec):
    """Whether the sparse vector has dot product 0 with every row."""
    return not any(sum(c * vec[j] for j, c in row.items() if j in vec)
                   for row in rows)


def verify_basis(report, cochains):
    """Check a list of cochains against the cohomology an ``hh2`` report
    computed: each one a cocycle, jointly independent modulo coboundaries,
    count matching.

    A cochain is a cocycle iff its vector satisfies the constraint rows the
    report kept, which is exact by the argument of ``cocycle_space``.
    """
    vecs = [vector_from_cochain(report.system, report.coords, c)
            for c in cochains]
    all_cocycles = all(_satisfies(report.rows, v) for v in vecs)
    red, pivots = report.coboundaries
    residues = [residual(red, pivots, v) for v in vecs]
    independent = rank(residues) == len(vecs)
    return BasisReport(all_cocycles, independent, len(vecs), report.hh2_dim)
