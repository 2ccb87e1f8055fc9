"""Second Hochschild cohomology of the quotient of a confluent system.

A 2-cochain assigns to each rule an algebra element parallel to its tip
(same origin and target).  The coordinate system runs over all pairs
(rule, parallel irreducible basis path), tips in rule order and parallels
in basis order, so every report is deterministic.

Cocycles are found by deforming each right-hand side with symbolic
first-order coefficients and reducing every tip-on-tip overlap both ways:
the order-t parts of the two normal forms must agree, which is a
homogeneous linear system in the coefficients.  Coboundaries are the image
of the arrow-indexed 1-cochains under the usual differential.  For algebras
built from a bipartite Brauer graph, the closed dimension count and the
explicit standard cocycle family are available as cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .deform import check_parallel, deform
from .errors import (
    NonParallelCochain,
    NotApplicable,
    RequiresConfluentSystem,
)
from .linalg import kernel_basis, quotient, rank, residual, rref
from .paths import Element, element_to_doc
from .presentation import cycle_word, dimension_formula
from .rewrite import (
    MAX_REDUCE_STEPS,
    ReductionSystem,
    Rule,
    check_diamond,
    enumerate_ambiguities,
    reduce,
    resolve_overlap,
)
from .ribbon import spanning_tree
from .scalars import FormalCtx, LinearCtx

_F0 = Fraction(0)
_F1 = Fraction(1)


# -- coordinates --------------------------------------------------------------

def parallel_paths(alg, origin, target):
    """Basis keys with the given origin and target, in basis order."""
    q = alg.quiver
    return [k for k in alg.basis
            if k[0] == origin and q.path_target(k) == target]


def cochain_space(system, alg):
    """Ordered coordinate system for 2-cochains.

    One coordinate per (rule, parallel basis path) pair; the list length is
    the cochain dimension.
    """
    q = alg.quiver
    out = []
    for ri, rule in enumerate(system.rules):
        for key in parallel_paths(alg, rule.tip[0], q.path_target(rule.tip)):
            out.append((ri, key))
    return out


def cochain_from_vector(system, alg, coords, vec):
    """Cochain dict rule_index -> Element from a coordinate vector."""
    q = alg.quiver
    values = {}
    for (ri, key), c in zip(coords, vec):
        if not c:
            continue
        cur = values.get(ri)
        add = Element(q, {key: Fraction(c)})
        values[ri] = add if cur is None else cur + add
    return values


def vector_from_cochain(system, alg, coords, cochain):
    """Coordinate vector of a cochain; every monomial must be a parallel
    irreducible basis path."""
    check_parallel(system, cochain)
    index = {pair: j for j, pair in enumerate(coords)}
    vec = [_F0] * len(coords)
    for ri, value in cochain.items():
        for key, c in value.terms.items():
            j = index.get((ri, key))
            if j is None:
                raise NonParallelCochain(
                    f"monomial {key!r} on rule {ri} is not an irreducible "
                    "basis path")
            vec[j] += c
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

def zeroth_differential(system, alg, phi):
    """1-cochain (d phi)(arrow) = NF(arrow * phi(origin) - phi(target) * arrow).

    ``phi`` maps vertices to algebra elements; missing vertices count as 0.
    """
    q = system.quiver
    out = {}
    for name in sorted(q.arrows):
        o, t = q.arrows[name]
        a_el = Element.path(q, o, (name,))
        val = Element.zero(q)
        p = phi.get(o)
        if p is not None:
            val = val + reduce(system, a_el * p)
        p = phi.get(t)
        if p is not None:
            val = val - reduce(system, p * a_el)
        if val:
            out[name] = val
    return out


def first_differential(system, alg, psi):
    """2-cochain obtained by substituting psi into each rule.

    For every monomial of tip - rhs (tip with coefficient +1, rhs monomials
    with their negated coefficients) and every letter position, the letter is
    replaced by psi(letter) and the product reduced; the signed sum is the
    value on that rule.
    """
    q = system.quiver
    out = {}
    for ri, rule in enumerate(system.rules):
        total = Element.zero(q)
        monomials = [(rule.tip, _F1)]
        monomials += [(k, -c) for k, c in rule.rhs.terms.items()]
        for (m_origin, word), c in monomials:
            for i, letter in enumerate(word):
                repl = psi.get(letter)
                if repl is None or not repl:
                    continue
                left_w, right_w = word[:i], word[i + 1:]
                lo, lt = q.arrows[letter]
                left_el = (Element.path(q, q.arrows[left_w[-1]][0], left_w)
                           if left_w else Element.idempotent(q, lt))
                right_el = (Element.path(q, m_origin, right_w)
                            if right_w else Element.idempotent(q, lo))
                total = total + (left_el * repl * right_el).scaled(c)
        nf = reduce(system, total)
        if nf:
            out[ri] = nf
    return out


def one_cochain_coords(alg):
    """(arrow, parallel basis path) pairs: arrows by name, parallels in
    basis order."""
    q = alg.quiver
    out = []
    for name in sorted(q.arrows):
        o, t = q.arrows[name]
        for key in parallel_paths(alg, o, t):
            out.append((name, key))
    return out


def coboundary_image(system, alg, coords=None):
    """Spanning set of the coboundary subspace in cochain coordinates."""
    if coords is None:
        coords = cochain_space(system, alg)
    q = alg.quiver
    vecs = []
    for name, key in one_cochain_coords(alg):
        psi = {name: Element(q, {key: _F1})}
        image = first_differential(system, alg, psi)
        vecs.append(vector_from_cochain(system, alg, coords, image))
    return vecs


# -- cocycles -----------------------------------------------------------------

def cocycle_space(system, alg, coords=None, max_steps=MAX_REDUCE_STEPS):
    """Basis of the cocycle subspace in cochain coordinates.

    Each rhs is deformed by t times a generic combination of the rule's
    parallel paths with symbolic coefficients; for every 1-ambiguity u|v|w
    the two resolutions (rewrite uv first, or vw first) are reduced to
    normal form and their order-t parts compared.  The kernel of the
    resulting homogeneous system is returned (the order-1 parts cancel
    because the base system is confluent; a nonzero constant means it
    was not).
    """
    if coords is None:
        coords = cochain_space(system, alg)
    n = len(coords)
    ctx = LinearCtx(n)
    q = system.quiver
    by_rule = {}
    for j, (ri, key) in enumerate(coords):
        by_rule.setdefault(ri, []).append((j, key))
    def_rules = []
    for ri, rule in enumerate(system.rules):
        terms = {k: ctx.from_fraction(c) for k, c in rule.rhs.terms.items()}
        for j, key in by_rule.get(ri, []):
            u = ctx.unknown(j)
            s = terms.get(key)
            terms[key] = u if s is None else s + u
        def_rules.append(Rule(rule.tip, Element(q, terms)))
    dsys = ReductionSystem(q, def_rules, word_cap=system.word_cap)
    one = ctx.one()
    rows = []
    for amb in enumerate_ambiguities(system):
        left, right = resolve_overlap(dsys, amb, one, max_steps)
        diff = left - right
        for key in sorted(diff.terms):
            c = diff.terms[key]
            if c.c0:
                raise RequiresConfluentSystem(
                    f"overlap {'*'.join(amb.word)} does not resolve in the "
                    "base system")
            # unknowns always enter with one factor of t, so a bare t-term
            # cannot appear
            assert not c.c1, "constraint with constant t-part"
            if c.lin:
                row = [_F0] * n
                for j, v in c.lin.items():
                    row[j] = v
                rows.append(row)
    return kernel_basis(rows, n)


# -- the quotient -------------------------------------------------------------

class HH2Report:
    """Dimension data and normalized representatives of the quotient.

    ``coboundaries`` is the eliminated coboundary image, the (rows, pivots)
    pair of ``rref``, kept so that cochains can be reduced modulo it later.
    """

    __slots__ = ("system", "alg", "coords", "cochain_dim", "cocycle_dim",
                 "coboundaries", "coboundary_dim", "hh2_dim", "formula",
                 "formula_matches", "representatives")

    def __init__(self, system, alg, coords, cocycle_dim, coboundaries,
                 formula, formula_matches, representatives):
        self.system = system
        self.alg = alg
        self.coords = coords
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
            cochain = cochain_from_vector(self.system, self.alg,
                                          self.coords, vec)
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


def hh2(system, alg, graph=None, max_steps=MAX_REDUCE_STEPS):
    """Cocycles modulo coboundaries, with the closed count when a bipartite
    (or two-vertex local) graph is supplied."""
    report = check_diamond(system, max_steps=max_steps)
    if not report:
        raise RequiresConfluentSystem(
            f"{len(report.failures)} unresolved overlaps")
    coords = cochain_space(system, alg)
    n = len(coords)
    cocycles = cocycle_space(system, alg, coords, max_steps=max_steps)
    red, pivots = rref(coboundary_image(system, alg, coords), n)
    reps = quotient(red, pivots, cocycles, n)
    formula = matches = None
    if graph is not None:
        try:
            formula = dimension_formula(graph)
            matches = formula == len(reps)
        except NotApplicable:
            pass
    return HH2Report(system, alg, coords, len(cocycles), (red, pivots),
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

def verify_cocycle(system, cochain, max_steps=MAX_REDUCE_STEPS):
    """Whether the first-order deformation along the cochain still resolves
    every 1-ambiguity; an independent check that never touches the symbolic
    solver."""
    ctx = FormalCtx(2)
    dsys = deform(system, cochain, ctx).system
    one = ctx.one()
    for amb in enumerate_ambiguities(system):
        left, right = resolve_overlap(dsys, amb, one, max_steps)
        if left != right:
            return False
    return True


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


def verify_basis(report, cochains, max_steps=MAX_REDUCE_STEPS):
    """Check a list of cochains against the cohomology an ``hh2`` report
    computed: each one a cocycle, jointly independent modulo coboundaries,
    count matching."""
    system = report.system
    vecs = [vector_from_cochain(system, report.alg, report.coords, c)
            for c in cochains]
    all_cocycles = all(
        verify_cocycle(system, c, max_steps=max_steps) for c in cochains)
    red, pivots = report.coboundaries
    residues = [residual(red, pivots, v) for v in vecs]
    independent = rank(residues, report.cochain_dim) == len(vecs)
    return BasisReport(all_cocycles, independent, len(vecs), report.hh2_dim)
