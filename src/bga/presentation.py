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
from .paths import Element, Quiver, rational, word_from_doc
# reduce is unused here, but bench/tests checks the name that spans rebinds
from .rewrite import (
    ReductionSystem,
    Rule,
    check_diamond,
    checked_system,
    reduce,
)
from .ribbon import bipartition as default_bipartition
from .ribbon import boundary_walks, check_bipartition


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
    """The quiver of g, loop arrows dropped for bp; raises
    InvalidBipartition for a bp that is not a proper 2-coloring of g."""
    if bp is not None and not check_bipartition(g, bp):
        raise InvalidBipartition("not a proper 2-coloring of the graph")
    return _quiver(g, bp)


def _quiver(g, bp):
    """The quiver of g for bp, which is None or known to 2-color g."""
    deleted = _deleted_halves(g, bp)
    keep = [h for h in g.half_edges if h not in deleted]
    arrows = {h: (g.edge_of(h), g.edge_of(g.successor(h))) for h in keep}
    return Quiver(g.edges, arrows)


class BrauerPresentation:
    __slots__ = ("quiver", "relations")

    def __init__(self, quiver, relations):
        self.quiver = quiver
        self.relations = relations  # list of Elements generating the ideal


def build_presentation(g):
    """Quiver plus the three classical families of ideal generators."""
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
    # products u*v of composable arrows not successive in the rotation vanish
    for hu in halves:
        for hv in halves:
            if g.edge_of(g.successor(hv)) != g.edge_of(hu):
                continue  # not composable
            if g.successor(hv) == hu:
                continue  # successive pairs survive
            word = arrow_word(hu) + arrow_word(hv)
            emit({quiver.word_key(word): 1})
    # the two cycle powers of an edge agree
    for h1, h2 in g.edges.values():
        v1, v2 = g.incidence[h1], g.incidence[h2]
        if g.is_truncated(v1) or g.is_truncated(v2):
            continue
        w1 = cycle_word(g, h1, g.multiplicity[v1])
        w2 = cycle_word(g, h2, g.multiplicity[v2])
        emit({quiver.word_key(w1): 1, quiver.word_key(w2): -1})
    # one step past the full cycle power vanishes
    for h in halves:
        if h in deleted:
            continue
        word = cycle_word(g, g.successor(h), g.multiplicity[g.incidence[h]]) + (h,)
        emit({quiver.word_key(word): 1})
    return BrauerPresentation(quiver, relations)


def _derive_rules(g, bp, quiver):
    """Rules of g for bp, each tagged by its source, ("a", edge id), ("b",
    half-edge) or ("c", arrow, arrow); no two rules share a tag.  Tips and
    rhs paths are keyed unchecked, and nothing checks the rules: they keep
    the invariants of ``rewrite`` by construction.  Zero rhs are shared."""
    rules = []
    zero = Element.zero(quiver)

    def path_key(word):
        return (quiver.arrows[word[-1]][0], word)

    # (a) part-one cycle powers rewrite to the part-two side of their edge
    for edge, (h1, h2) in g.edges.items():
        if g.incidence[h1] in bp.part_two:
            h1, h2 = h2, h1
        v1, v2 = g.incidence[h1], g.incidence[h2]
        if g.is_truncated(v1):
            continue
        tip = path_key(cycle_word(g, h1, g.multiplicity[v1]))
        rhs = path_key(cycle_word(g, h2, g.multiplicity[v2]))
        rules.append(Rule(tip, Element(quiver, {rhs: 1}), info=("a", edge)))
    # (b) one step past a part-two cycle power vanishes
    for h in sorted(g.half_edges):
        if g.incidence[h] not in bp.part_two:
            continue
        word = cycle_word(g, g.successor(h), g.multiplicity[g.incidence[h]]) + (h,)
        rules.append(Rule(path_key(word), zero, info=("b", h)))
    # (c) the remaining products of non-successive arrows vanish
    for hu in sorted(quiver.arrows):
        for hv in quiver.arrows_into(quiver.origin(hu)):
            if g.successor(hv) == hu:
                continue
            rules.append(Rule(path_key((hu, hv)), zero, info=("c", hu, hv)))
    return rules


def reduction_system(g, bp=None):
    """Reduction system of the graph for the bipartition, straight from
    the graph: no relations are built and the rules are derived once.

    Without a bipartition the default one of the graph is used; raises
    NotBipartite when none exists, InvalidBipartition for a bad one.  Only
    a given bipartition is checked: the default one 2-colors g as found.
    """
    if bp is None:
        try:
            bp = default_bipartition(g)
        except NonBipartite as exc:
            raise NotBipartite(str(exc)) from exc
        quiver = _quiver(g, bp)
    else:
        quiver = quiver_from_graph(g, bp)
    rules = _derive_rules(g, bp, quiver)
    return ReductionSystem(quiver, rules)


def rules_from_doc(quiver, doc):
    """ReductionSystem from a JSON rule document on an existing quiver; the
    rules are checked by ``checked_system``."""
    rules = []
    try:
        for entry in doc["rules"]:
            tip = quiver.word_key(word_from_doc(entry["tip"]))
            terms = {}
            for coeff, word in entry["rhs"]:
                word = word_from_doc(word)
                key = quiver.word_key(word) if word else (tip[0], ())
                terms[key] = terms.get(key, 0) + rational(coeff)
            rules.append(Rule(tip, Element(quiver, terms)))
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed rules document: {exc!r}") from exc
    return checked_system(quiver, rules)


def two_cycle_set(system):
    """Ordered arrow products u*v closing a 2-cycle with both u*v and v*u
    reducing to zero.  Needs a confluent system to decide membership."""
    if not check_diamond(system):
        raise RequiresConfluentSystem("system is not confluent")
    q = system.quiver
    nf = system.normal_form
    out = []
    for u in sorted(q.arrows):
        for v in q.arrows_into(q.origin(u)):
            if u == v or q.origin(v) != q.target(u):
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
    n_edges = len(g.edges)
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
