"""From a decorated ribbon graph to its quiver, relations, and rewrite rules.

The quiver has one vertex per graph edge and one arrow per half-edge h,
going from the edge of h to the edge of its rotation successor.  Loop arrows
at truncated vertices (multiplicity 1, valence 1) are dropped: all of them
in the plain presentation, only the part-one ones when a bipartition is
given.  When an edge has two truncated endpoints (a lone edge), the loop at
the lexicographically larger vertex is the one dropped.

Relations and rules are phrased through "cycle words": the cycle at vertex v
starting with half-edge h is the word of arrows that walks the rotation at v
once, applying the arrow of h first.
"""

from __future__ import annotations

from .errors import (
    DOCUMENT_ERRORS,
    InvalidBipartition,
    NotApplicable,
    NotBipartite,
    NonBipartite,
    RequiresConfluentSystem,
    SchemaError,
)
from .paths import Element, Quiver, rational
# reduce is unused here, but bench/tests checks the name that spans rebinds
from .rewrite import NormalForms, ReductionSystem, Rule, check_diamond, reduce
from .ribbon import bipartition as default_bipartition
from .ribbon import boundary_walks, check_bipartition

_F1 = 1


def _rotation_orbit(g, h):
    """Half-edges at the vertex of h in rotation order, starting at h."""
    cyc = g.rotation[g.incidence[h]]
    i = cyc.index(h)
    return cyc[i:] + cyc[:i]


def cycle_word(g, h, power=1):
    """Arrow word of the vertex cycle based at the edge of h.

    The rightmost (first applied) arrow is the one of h itself; the word
    walks the rotation at the vertex of h once per power.
    """
    orbit = _rotation_orbit(g, h)
    once = tuple(reversed(orbit))
    return once * power


def _deleted_halves(g, bp):
    """Half-edge names whose loop arrows are dropped from the quiver."""
    dropped = set()
    for h in g.half_edges:
        v = g.incidence[h]
        if not g.is_truncated(v):
            continue
        if bp is not None:
            if v in bp.part_one:
                dropped.add(h)
            continue
        other = g.incidence[g.partner(h)]
        if g.is_truncated(other) and v < other:
            continue  # lone edge, both ends truncated: keep the smaller side
        dropped.add(h)
    return dropped


def quiver_from_graph(g, bp=None):
    deleted = _deleted_halves(g, bp)
    keep = [h for h in g.half_edges if h not in deleted]
    arrows = {h: (g.edge_of(h), g.edge_of(g.successor(h))) for h in keep}
    sigma = {h: g.predecessor(h) for h in keep}
    return Quiver(g.edge_ids(), arrows, sigma)


class BrauerPresentation:
    __slots__ = ("quiver", "relations")

    def __init__(self, quiver, relations):
        self.quiver = quiver
        self.relations = relations  # list of Elements generating the ideal


def _omega_sign(omega, edge_id):
    return _F1 if omega.get(edge_id, 0) % 2 == 0 else -_F1


def build_presentation(g, omega=None):
    """Quiver plus the three classical families of ideal generators, with
    the twist signs of ``omega`` (edge id -> int, consumed mod 2)."""
    omega = omega or {}
    quiver = quiver_from_graph(g)
    deleted = _deleted_halves(g, None)

    def arrow_word(h):
        # a dropped loop stands for the cycle at the other end of its edge
        if h in deleted:
            h2 = g.partner(h)
            return cycle_word(g, h2, g.multiplicity[g.incidence[h2]])
        return (h,)

    relations = []
    seen = set()

    def emit(terms):
        el = Element(quiver, terms)
        key = tuple(sorted((k, str(c)) for k, c in el.terms.items()))
        if el and key not in seen:
            seen.add(key)
            relations.append(el)

    halves = sorted(g.half_edges)
    # products u*v of sigma-nonsuccessive composable arrows vanish
    for hu in halves:
        for hv in halves:
            if g.edge_of(g.successor(hv)) != g.edge_of(hu):
                continue  # not composable
            if g.predecessor(hu) == hv:
                continue  # sigma-successive pairs survive
            word = arrow_word(hu) + arrow_word(hv)
            emit({quiver.word_key(word): _F1})
    # the two cycle powers of an edge agree up to the twist sign
    for edge in g.edge_ids():
        h1, h2 = edge.split("|")
        v1, v2 = g.incidence[h1], g.incidence[h2]
        if g.is_truncated(v1) or g.is_truncated(v2):
            continue
        w1 = cycle_word(g, h1, g.multiplicity[v1])
        w2 = cycle_word(g, h2, g.multiplicity[v2])
        emit({quiver.word_key(w1): _F1,
              quiver.word_key(w2): -_omega_sign(omega, edge)})
    # one step past the full cycle power vanishes
    for h in halves:
        if h in deleted:
            continue
        word = cycle_word(g, g.successor(h), g.multiplicity[g.incidence[h]]) + (h,)
        emit({quiver.word_key(word): _F1})
    return BrauerPresentation(quiver, relations)


def _derive_rules(g, bp, omega, quiver):
    rules = []
    # (a) part-one cycle powers rewrite to the part-two side of their edge
    for edge in g.edge_ids():
        h1, h2 = edge.split("|")
        if bp.side(g.incidence[h1]) == 2:
            h1, h2 = h2, h1
        v1, v2 = g.incidence[h1], g.incidence[h2]
        if g.is_truncated(v1):
            continue
        tip = quiver.word_key(cycle_word(g, h1, g.multiplicity[v1]))
        rhs_word = cycle_word(g, h2, g.multiplicity[v2])
        rhs = Element(quiver, {quiver.word_key(rhs_word): _omega_sign(omega, edge)})
        rules.append(Rule(tip, rhs, info=("a", edge, h1, h2)))
    # (b) one step past a part-two cycle power vanishes
    for h in sorted(g.half_edges):
        if bp.side(g.incidence[h]) != 2:
            continue
        word = cycle_word(g, g.successor(h), g.multiplicity[g.incidence[h]]) + (h,)
        rules.append(Rule(quiver.word_key(word), Element.zero(quiver), info=("b", h)))
    # (c) the remaining sigma-nonsuccessive products vanish
    for hu in sorted(quiver.arrows):
        for hv in sorted(quiver.arrows):
            if quiver.origin(hu) != quiver.target(hv):
                continue
            if quiver.sigma[hu] == hv:
                continue
            rules.append(Rule(quiver.word_key((hu, hv)), Element.zero(quiver),
                              info=("c", hu, hv)))
    return rules


def reduction_system(g, bp=None, omega=None):
    """Reduction system of the graph for the bipartition, straight from
    the graph: no relations are built and the rules are derived once.

    Without a bipartition the default one of the graph is used; raises
    NotBipartite when none exists, InvalidBipartition for a bad one.
    """
    if bp is None:
        try:
            bp = default_bipartition(g)
        except NonBipartite as exc:
            raise NotBipartite(str(exc)) from exc
    if not check_bipartition(g, bp):
        raise InvalidBipartition("not a proper 2-coloring of the graph")
    quiver = quiver_from_graph(g, bp)
    rules = _derive_rules(g, bp, omega or {}, quiver)
    cap = 2 * max(g.multiplicity[v] * g.valence(v) for v in g.vertices()) + 2
    return ReductionSystem(quiver, rules, word_cap=cap)


def rules_from_doc(quiver, doc, word_cap=None):
    """ReductionSystem from a JSON rule document on an existing quiver."""
    rules = []
    try:
        for entry in doc["rules"]:
            tip = quiver.word_key(tuple(entry["tip"]))
            terms = {}
            for coeff, word in entry["rhs"]:
                key = quiver.word_key(tuple(word)) if word else (tip[0], ())
                terms[key] = terms.get(key, 0) + rational(coeff)
            rules.append(Rule(tip, Element(quiver, terms)))
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed rules document: {exc!r}") from exc
    return ReductionSystem(quiver, rules, word_cap=word_cap)


def two_cycle_set(system):
    """Ordered arrow products u*v closing a 2-cycle with both u*v and v*u
    reducing to zero.  Needs a confluent system to decide membership."""
    if not check_diamond(system):
        raise RequiresConfluentSystem("system is not confluent")
    q = system.quiver
    nf = NormalForms(system)
    out = []
    for u in sorted(q.arrows):
        for v in sorted(q.arrows):
            if u == v:
                continue
            if q.origin(u) != q.target(v) or q.origin(v) != q.target(u):
                continue
            if not nf((q.origin(v), (u, v))) and not nf((q.origin(u), (v, u))):
                out.append((u, v))
    return out


def dimension_formula(g):
    """Closed-form dimension of the degree-2 cohomology, when available.

    Single-edge graphs use the two-vertex branch; other graphs must be
    bipartite, with the two-cycle count read off the bigon faces.
    """
    mults = g.multiplicity
    n_edges = len(g.edges())
    if n_edges == 1 and len(mults) == 2:
        m1, m2 = sorted(mults.values())
        return m1 + m2 + 1 if m1 > 1 else m2
    try:
        default_bipartition(g)
    except NonBipartite as exc:
        raise NotApplicable("no closed form without a bipartition") from exc
    two_cycles = 2 * len(boundary_walks(g).bigon_faces)
    return 2 + sum(m - 1 for m in mults.values()) \
        + n_edges - len(mults) + two_cycles
