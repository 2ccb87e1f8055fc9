"""Second Hochschild cohomology of the quotient of a confluent system.

A 2-cochain assigns to each rule a term dict of paths parallel to its tip
(same origin and target): it is a dict ``{rule index: term dict}``.  The
coordinate system runs over all pairs (rule, parallel irreducible basis
path), tips in rule order and parallels in basis order, so every report is
deterministic.

A cochain psi is a cocycle iff deforming every rhs to rhs + t * psi
resolves each tip-on-tip overlap to first order in t.  Both linear maps are
built from reductions in the base system alone, with exact rational
coefficients:

* cocycle constraints: ``rewrite.overlap_steps`` lists the reduce steps
  of both resolutions of each overlap, from the system's normal-form memo
  or, for a monomial overlap, off its two rules; an unknown coordinate
  (rule r, path p) contributes the normal form of ``left p right`` for
  every step that rewrote the tip of r between ``left`` and ``right``
  (see ``cocycle_space`` for why this is the order-t part of the deformed
  reduction);
* coboundaries: the arrow-indexed 1-cochains are substituted into the
  letter occurrences of every tip - rhs.

Both maps skip a word ``left p right`` with a zero pair of the system at
one of its two junctions: ``left`` is irreducible in both (the part of a
word before its leftmost redex, or a prefix of a tip or of an rhs
monomial), so a zero pair at the left junction is the word's leftmost
redex, and the system is confluent, so a zero pair at the right one also
makes the normal form 0 (see ``rewrite``).  Only words within the letter
budget are skipped.

``hh2`` keeps the constraint rows, and ``verify_basis`` tests cochains for
being cocycles against them with ``linalg.annihilates``.  The test suite
keeps the independent oracle, which resolves the overlaps of the deformed
system instead.

For algebras built from a bipartite Brauer graph, the closed dimension count
and the explicit standard cocycle family are available as cross-checks.
"""

from __future__ import annotations

from .errors import (
    DOCUMENT_ERRORS,
    NotApplicable,
    RequiresConfluentSystem,
    SchemaError,
    UsageError,
)
from .linalg import annihilates, quotient, rank, residual, rref
from .paths import element_from_doc, element_to_doc, word_from_doc
from .presentation import cycle_word, dimension_formula
from . import rewrite
from .rewrite import (
    check_cochain,
    check_diamond,
    enumerate_ambiguities,
    overlap_steps,
    reduce,  # noqa: F401 - bench/tests reads the binding hochschild.reduce
)
from .ribbon import bipartition, boundary_walks, spanning_tree


# -- coordinates --------------------------------------------------------------

def cochain_space(alg):
    """Ordered coordinate system for 2-cochains.

    One coordinate per (rule, parallel basis path) pair: rules in order,
    paths in basis order, read off ``alg.ending_at``.
    """
    q = alg.quiver
    out = []
    for ri, rule in enumerate(alg.system.rules):
        origin = rule.tip[0]
        for _, key in alg.ending_at[q.path_target(rule.tip)]:
            if key[0] == origin:
                out.append((ri, key))
    return out


def cochain_from_vector(coords, vec):
    """Cochain dict rule_index -> term dict from a sparse coordinate vector,
    whose entries are nonzero."""
    cochain = {}
    for j, c in sorted(vec.items()):
        ri, key = coords[j]
        cochain.setdefault(ri, {})[key] = c
    return cochain


def vector_from_cochain(system, coords, cochain):
    """Sparse coordinate vector {j: c} of a cochain, validated by
    ``check_cochain``: every monomial is then a parallel irreducible path,
    so a coordinate."""
    check_cochain(system, cochain)
    index = {pair: j for j, pair in enumerate(coords)}
    return {index[(ri, key)]: c for ri, value in cochain.items()
            for key, c in value.items()}


def cochain_values_doc(system, cochain):
    """JSON-friendly list of the nonzero values, in rule order."""
    return [{"tip": list(system.rules[ri].tip[1]),
             "element": element_to_doc(cochain[ri])}
            for ri in sorted(cochain) if cochain[ri]]


def cochain_from_values_doc(system, doc):
    """Cochain of a ``{"values": cochain_values_doc(...)}`` document;
    UsageError for an unknown tip, else SchemaError if malformed."""
    by_tip = {rule.tip[1]: ri for ri, rule in enumerate(system.rules)}
    cochain = {}
    try:
        for entry in doc["values"]:
            tip = word_from_doc(entry["tip"])
            if tip not in by_tip:
                raise UsageError(f"no rule with tip {'*'.join(tip)}")
            if by_tip[tip] in cochain:
                raise SchemaError(f"duplicate tip {'*'.join(tip)}")
            cochain[by_tip[tip]] = element_from_doc(system.quiver,
                                                    entry["element"])
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed cochain document: {exc!r}") from exc
    return cochain


# -- differentials ------------------------------------------------------------

def _junctions(system):
    """The zero-pair test at the junctions of a word left * p * right, as
    a function ``around(left, right)`` -> (za, zb, b): za holds the letters
    that make a zero pair after the last letter of ``left``, zb those that
    make one before the first letter b of ``right`` (b is None for an empty
    ``right``).  A zero pair sits at a junction iff
    ``p[0] in za or p[-1] in zb`` for a nonempty p, and iff ``b in za``
    for an empty one.  With ``left`` irreducible, the pair at the left
    junction is the leftmost redex, and in a confluent system a pair
    anywhere settles the word: either way its normal form is 0 (see
    ``rewrite``).
    """
    after, before = {}, {}
    for a, b in system.zero_pairs:
        after.setdefault(a, set()).add(b)
        before.setdefault(b, set()).add(a)

    def around(left, right):
        b = right[0] if right else None
        return after.get(left[-1], ()) if left else (), before.get(b, ()), b

    return around


def _letter_occurrences(system):
    """{arrow: [(rule_index, coeff, origin, left, right, za, zb, b)]} over
    every letter of every monomial of tip - rhs: the tip with coefficient
    +1, the rhs monomials negated, ``left`` and ``right`` the words around
    the letter, and za, zb, b the junction data of ``_junctions`` for
    the word left * path * right."""
    around = _junctions(system)
    out = {}
    for ri, rule in enumerate(system.rules):
        monomials = [(rule.tip, 1)]
        monomials += [(k, -c) for k, c in rule.rhs.items()]
        for (origin, word), c in monomials:
            for i, letter in enumerate(word):
                left, right = word[:i], word[i + 1:]
                out.setdefault(letter, []).append(
                    (ri, c, origin, left, right, *around(left, right)))
    return out


def one_cochain_coords(alg):
    """(arrow, parallel basis path) pairs: arrows by name, paths in basis
    order, read off ``alg.ending_at``."""
    out = []
    for name, (origin, target) in sorted(alg.quiver.arrows.items()):
        for _, key in alg.ending_at[target]:
            if key[0] == origin:
                out.append((name, key))
    return out


def coboundary_image(alg, coords):
    """Spanning set of the coboundary subspace in the cochain coordinates
    ``coords`` of ``cochain_space(alg)``, for a confluent system.

    One vector per ``one_cochain_coords`` pair (arrow, path): the first
    differential of that 1-cochain.  Each occurrence of the arrow in
    tip - rhs is replaced by the path, and the word so made is reduced once,
    through the system's memo that the cocycle rows share.  Its left part
    is a prefix of a tip or of an rhs monomial, so it is irreducible, and a
    word with a zero pair at a junction of left|path|right is 0 and is
    skipped, unless it is longer than the letter budget.
    """
    nf = alg.system.normal_form
    budget = rewrite.MAX_REDUCE_LETTERS
    index = {pair: j for j, pair in enumerate(coords)}
    occurrences = _letter_occurrences(alg.system)
    vecs = []
    for name, (_, path) in one_cochain_coords(alg):
        vec = {}
        for ri, c, origin, left, right, za, zb, b in occurrences.get(name, ()):
            if (((path[0] in za or path[-1] in zb) if path else b in za)
                    and len(left) + len(path) + len(right) <= budget):
                continue
            for k, d in nf((origin, left + path + right)).items():
                j = index[(ri, k)]
                vec[j] = vec.get(j, 0) + c * d
        vecs.append({j: c for j, c in vec.items() if c})
    return vecs


# -- cocycles -----------------------------------------------------------------

def _cocycle_rows(system, coords):
    """Constraint rows {j: c}: per overlap, one row for each normal-form key
    at which the order-t parts of the two resolutions differ, keys in order.

    Unknown j = (rule r, path p) enters the rhs of r as t * x_j * p.  A base
    step c * left (tip r) right then adds c * t * x_j * left p right; the
    t-part of a resolution is the normal form of the sum over its steps,
    which ``rewrite.overlap_steps`` lists for both sides.  The left word of
    a step is the part before a leftmost redex, so it is irreducible, and
    the system is confluent: a word with a zero pair at a junction of
    left|p|right is 0 and is skipped, unless it is longer than the letter
    budget.
    """
    nf = system.normal_form
    around = _junctions(system)
    budget = rewrite.MAX_REDUCE_LETTERS
    by_rule = {}
    for j, (ri, (_, p)) in enumerate(coords):
        by_rule.setdefault(ri, []).append((j, p))
    rows = []
    for amb in enumerate_ambiguities(system):
        diff = {}
        for c, o, lw, ri, rw in overlap_steps(system, amb):
            za, zb, b = around(lw, rw)
            n = len(lw) + len(rw)
            for j, p in by_rule.get(ri, ()):
                if (((p[0] in za or p[-1] in zb) if p else b in za)
                        and n + len(p) <= budget):
                    continue
                for k, d in nf((o, lw + p + rw)).items():
                    row = diff.setdefault(k, {})
                    row[j] = row.get(j, 0) + c * d
        for k in sorted(diff):
            row = {j: c for j, c in diff[k].items() if c}
            if row:
                rows.append(row)
    return rows


def cocycle_space(alg):
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

    Returns (coords, rows) for the system ``alg.system``: a cochain vector
    over ``coords`` is a cocycle iff its dot product with every row is 0,
    so the cocycle space is the null space of the rows.  ``check_diamond``
    runs before the coordinates are listed, so a system with an unresolved
    overlap raises RequiresConfluentSystem first.
    """
    system = alg.system
    report = check_diamond(system)
    if not report:
        raise RequiresConfluentSystem(
            f"{len(report.failures)} unresolved overlaps")
    coords = cochain_space(alg)
    return coords, _cocycle_rows(system, coords)


# -- the quotient -------------------------------------------------------------

class HH2Report:
    """Dimension data and normalized representatives of the quotient.

    ``rows`` are the cocycle constraint rows of ``alg.system``, so a
    cochain vector is a cocycle iff its dot product with each of them is 0.
    ``coboundaries`` is the eliminated coboundary image, the (rows, pivots)
    pair of ``rref``.  Both are kept so that cochains can be tested later.
    The representatives complement the coboundaries in the cocycles.
    """

    __slots__ = ("alg", "coords", "rows", "cochain_dim", "cocycle_dim",
                 "coboundaries", "coboundary_dim", "hh2_dim", "formula",
                 "formula_matches", "representatives")

    def __init__(self, alg, coords, rows, coboundaries, formula,
                 formula_matches, representatives):
        self.alg = alg
        self.coords = coords
        self.rows = rows
        self.cochain_dim = len(coords)
        self.coboundaries = coboundaries
        self.coboundary_dim = len(coboundaries[1])
        self.hh2_dim = len(representatives)
        self.cocycle_dim = self.hh2_dim + self.coboundary_dim
        self.formula = formula
        self.formula_matches = formula_matches
        self.representatives = representatives

    def to_doc(self):
        basis = []
        for vec in self.representatives:
            cochain = cochain_from_vector(self.coords, vec)
            values = cochain_values_doc(self.alg.system, cochain)
            basis.append({"tag": "generic", "values": values})
        return {
            "cochain_dim": self.cochain_dim,
            "cocycle_dim": self.cocycle_dim,
            "coboundary_dim": self.coboundary_dim,
            "hh2_dim": self.hh2_dim,
            "formula": self.formula,
            "formula_matches": self.formula_matches,
            "basis": basis,
        }


def hh2(alg, graph=None):
    """Cocycles modulo coboundaries of ``alg``, with the closed count when a
    bipartite (or two-vertex local) graph is supplied.

    ``cocycle_space`` runs the confluence check.  Both linear maps read
    the system's normal-form memo, which keeps the reduce steps the
    cocycle rows are read from.  The representatives are the rref of the
    cocycles that vanish at the coboundaries' pivots, a complement of the
    coboundaries (``linalg.quotient``), so no cocycle basis is listed and
    two eliminations do: the coboundary image and the kernel of the
    cocycle rows with the coboundaries' pivot columns deleted.
    """
    coords, rows = cocycle_space(alg)
    red, pivots = rref(coboundary_image(alg, coords))
    reps = quotient(rows, len(coords), red, pivots)
    formula = matches = None
    if graph is not None:
        try:
            formula = dimension_formula(graph)
            matches = formula == len(reps)
        except NotApplicable:
            pass
    return HH2Report(alg, coords, rows, (red, pivots), formula, matches, reps)


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
    """{tag: rule index} over the tags ``Rule.info`` of derived rules;
    raises NotApplicable when a rule carries none."""
    index = {rule.info: ri for ri, rule in enumerate(system.rules)}
    if None in index:
        raise NotApplicable(
            "rules carry no construction data (user-supplied system)")
    return index


def standard_cocycles(graph, system):
    """The explicit cocycle family of a bipartite, non-local Brauer graph,
    on the rules ``reduction_system`` derived for one bipartition of it,
    as a list; see ``_standard_members``."""
    return list(_standard_members(graph, system))


def _standard_members(graph, system):
    """The members of ``standard_cocycles`` one at a time, in family
    order: ``bga deform`` stops at the first of its kind, and builds no
    later member (only C and D read the spanning tree and the faces).

    Four shapes: (A) one idempotent/arrow pair spread over all rules,
    (B) one per vertex v and power 1 <= i < m(v), (C) one per non-tree edge,
    (D) two per bigon half-edge pair.  Counts are 1, sum(m(v)-1),
    |E|-|V|+1, and the number of ordered vanishing 2-cycles.  Each value
    sits on the rule found by its tag in ``_rule_index``; the part-two
    half-edges are those with a ("b", h) rule, so the sides are the ones
    the system was derived for.  Raises NonBipartite for a graph with no
    bipartition, then NotApplicable for a single edge, then NotApplicable
    for a system whose rules carry no tags, all before the first member.
    """
    bipartition(graph)
    if len(graph.edges) == 1:
        raise NotApplicable("single-edge algebras have no standard family")
    rule_of = _rule_index(system)
    a_rule = {e: rule_of[("a", e)] for e in graph.edges if ("a", e) in rule_of}
    b_rule = {h: rule_of[("b", h)] for h in sorted(graph.half_edges)
              if ("b", h) in rule_of}
    q = system.quiver

    # (A): the unit shift.  +e on every cycle-commutation tip, -(last arrow)
    # on every vanishing-power tip (the b-rule of h ends in h), 0 elsewhere.
    values = {}
    for ri in a_rule.values():
        values[ri] = {(system.rules[ri].tip[0], ()): 1}
    for h, ri in b_rule.items():
        values[ri] = {q.word_key((h,)): -1}
    yield StandardCocycle("A", "A", values)

    # (B): multiplicity-lowering cycle terms, one per (vertex, power).  The
    # graph has no loops, so at most one half of an edge lies at v; only a
    # part-two v has b-rules, each lowered to the i-th cycle power times h.
    for v in graph.vertices():
        for i in range(1, graph.multiplicity[v]):
            values = {}
            for edge, ri in a_rule.items():
                for h in graph.edges[edge]:
                    if graph.incidence[h] == v:
                        values[ri] = {q.word_key(cycle_word(graph, h, i)): 1}
            for h, ri in b_rule.items():
                if graph.incidence[h] == v:
                    word = cycle_word(graph, graph.successor(h), i) + (h,)
                    values[ri] = {q.word_key(word): -1}
            yield StandardCocycle("B", f"B({v},{i})", values)

    # (C): one per edge outside a spanning tree, rescaling its commutation
    # rule by its own replacement: the value is the rule's rhs dict itself,
    # which nothing changes.
    tree = spanning_tree(graph)
    for edge in graph.edges:
        if edge in tree:
            continue
        ri = a_rule[edge]  # cycle edges have non-truncated endpoints
        yield StandardCocycle("C", f"C({edge})", {ri: system.rules[ri].rhs})

    # (D): bigon terms, one pair per bigon face.  The face's half h1 at its
    # part-two vertex w has rotation successor h2; the partners i1, i2 of
    # h1, h2 sit at one part-one vertex v, rotation-consecutive the other
    # way around.
    bigons = sorted((graph.incidence[h], h)
                    for face in boundary_walks(graph).bigon_faces
                    for h in face if h in b_rule)
    for w, h1 in bigons:
        h2 = graph.successor(h1)
        i1, i2 = graph.pairing[h1], graph.pairing[h2]
        v = graph.incidence[i1]
        e1, e2 = graph.edge_of(h1), graph.edge_of(h2)
        beta, alpha = h1, i2          # arrows e1 -> e2 and e2 -> e1
        vcyc = cycle_word(graph, i1, graph.multiplicity[v])
        astar = vcyc[1:]              # the v-cycle at e1 minus alpha
        values = {
            rule_of[("c", alpha, beta)]: {(e1, ()): 1},
            rule_of[("c", beta, alpha)]: {(e2, ()): 1},
            rule_of[("b", h1)]: {q.word_key(astar): 1},
        }
        yield StandardCocycle("D1", f"D1({h1},{h2})", values)
        wcyc = cycle_word(graph, h2, graph.multiplicity[w])
        values = {
            rule_of[("c", beta, alpha)]: {q.word_key(wcyc): 1},
        }
        yield StandardCocycle("D2", f"D2({h1},{h2})", values)


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


def verify_basis(report, cochains):
    """Check a list of cochains against the cohomology an ``hh2`` report
    computed: each one a cocycle, jointly independent modulo coboundaries,
    count matching.

    A cochain is a cocycle iff the constraint rows the report kept
    annihilate its vector, which is exact by the argument of
    ``cocycle_space``.
    """
    vecs = [vector_from_cochain(report.alg.system, report.coords, c)
            for c in cochains]
    all_cocycles = annihilates(report.rows, vecs)
    red, pivots = report.coboundaries
    residues = [residual(red, pivots, v) for v in vecs]
    independent = rank(residues) == len(vecs)
    return BasisReport(all_cocycles, independent, len(vecs), report.hh2_dim)
