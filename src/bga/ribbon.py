"""Ribbon graphs with vertex multiplicities.

A ribbon graph is a quadruple (V, H, s, iota) together with a rotation rho:
s sends each half-edge to its vertex, iota is a fixed-point-free involution
pairing half-edges into edges, and rho cyclically permutes the half-edges at
each vertex (successor in the listed rotation order).  A multiplicity
m(v) >= 1 at each vertex makes it a Brauer graph.

Documents are JSON objects:

    {"vertices": [{"id": "v", "multiplicity": 1}, ...],
     "half_edges": ["h1", ...],
     "incidence": {"h1": "v", ...},
     "pairing": [["h1", "h2"], ...],
     "rotation": {"v": ["h1", ...], ...}}

>>> g = parse_ribbon_graph(_DOCTEST_DOC)
>>> g.edges
{'h1|h2': ('h1', 'h2')}
>>> g.valence('u')
1
"""

from __future__ import annotations

import json
from collections import deque

from .errors import (
    DOCUMENT_ERRORS,
    Disconnected,
    InvalidInvolution,
    InvalidRotation,
    NonBipartite,
    SchemaError,
)

_DOCTEST_DOC = """{
  "vertices": [{"id": "u", "multiplicity": 2}, {"id": "v", "multiplicity": 1}],
  "half_edges": ["h1", "h2"],
  "incidence": {"h1": "u", "h2": "v"},
  "pairing": [["h1", "h2"]],
  "rotation": {"u": ["h1"], "v": ["h2"]}
}"""


class RibbonGraph:
    """A validated ribbon graph.  The rotation and the pairing are indexed
    once, when the graph is built: ``successor`` and ``edge_of`` are
    lookups, and ``edges`` is the edge table in sorted id order."""

    __slots__ = ("multiplicity", "half_edges", "incidence", "pairing",
                 "rotation", "edges", "_successor", "_edge_of")

    def __init__(self, multiplicity, half_edges, incidence, pairing, rotation):
        self.multiplicity = dict(multiplicity)   # vertex id -> m(v) >= 1
        self.half_edges = list(half_edges)
        self.incidence = dict(incidence)         # half-edge -> vertex (the map s)
        self.pairing = dict(pairing)             # involution iota, both directions stored
        self.rotation = {v: list(hs) for v, hs in rotation.items()}
        self._successor = {h: cyc[(i + 1) % len(cyc)]
                           for cyc in self.rotation.values()
                           for i, h in enumerate(cyc)}
        halves = {h: tuple(sorted((h, p))) for h, p in self.pairing.items()}
        self._edge_of = {h: f"{a}|{b}" for h, (a, b) in halves.items()}
        # edge id (``edge_of``) -> (smaller half, larger half), ids sorted
        self.edges = dict(sorted((self._edge_of[h], pair)
                                 for h, pair in halves.items()))

    # -- basic accessors ---------------------------------------------------

    def vertices(self):
        return sorted(self.multiplicity)

    def partner(self, h):
        return self.pairing[h]

    def successor(self, h):
        """rho(h): next half-edge in the rotation at the vertex of h."""
        return self._successor[h]

    def edge_of(self, h):
        """Canonical edge id: the two half-edge ids joined by '|', smaller first."""
        return self._edge_of[h]

    def valence(self, v):
        return len(self.rotation[v])

    def is_truncated(self, v):
        return self.multiplicity[v] == 1 and self.valence(v) == 1

    def dimension_sum(self):
        return sum(m * self.valence(v) ** 2 for v, m in self.multiplicity.items())


def parse_ribbon_graph(text):
    """Parse and validate a ribbon-graph document (JSON text or dict); a
    value of the wrong JSON type raises SchemaError like any malformed one."""
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a decode error, an integer literal too long to convert, or
            # arrays or objects nested too deep for the decoder
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        doc = text
    try:
        g = RibbonGraph(*_graph_fields(doc))
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed graph document: {exc!r}") from exc
    _check_connected(g)
    return g


def _graph_fields(doc):
    """(multiplicity, half-edges, incidence, pairing, rotation) of a valid
    document; an ill-typed value may raise one of ``DOCUMENT_ERRORS``."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    for key in ("vertices", "half_edges", "incidence", "pairing", "rotation"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")

    mult = {}
    for entry in doc["vertices"]:
        if not isinstance(entry, dict) or "id" not in entry or "multiplicity" not in entry:
            raise SchemaError(f"bad vertex entry {entry!r}")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise SchemaError("vertex ids must be strings")
        if vid in mult:
            raise SchemaError(f"duplicate vertex id {vid!r}")
        m = entry["multiplicity"]
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise SchemaError(f"multiplicity of {vid!r} must be a positive integer")
        mult[vid] = m

    halves = doc["half_edges"]
    if len(set(halves)) != len(halves):
        raise SchemaError("duplicate half-edge id")
    if not isinstance(halves, list):
        raise SchemaError("half_edges must be a JSON list")
    hset = set(halves)
    if not all(isinstance(h, str) for h in halves):
        raise SchemaError("half-edge ids must be strings")
    for h in halves:
        if "|" in h:  # edge ids join their two half-edge ids with "|"
            raise SchemaError(f"half-edge id {h!r} contains '|'")

    incidence = doc["incidence"]
    if set(incidence) != hset:
        raise SchemaError("incidence keys must be exactly the half-edges")
    if not isinstance(incidence, dict):
        raise SchemaError("incidence must be a JSON object")
    for h, v in incidence.items():
        if v not in mult:
            raise SchemaError(f"incidence of {h!r} names unknown vertex {v!r}")

    pairing = {}
    for pair in doc["pairing"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"bad pairing entry {pair!r}")
        a, b = pair
        if a not in hset or b not in hset:
            raise SchemaError(f"pairing names unknown half-edge in {pair!r}")
        if a == b:
            raise InvalidInvolution(f"fixed point {a!r}")
        for x in (a, b):
            if x in pairing:
                raise InvalidInvolution(f"half-edge {x!r} paired twice")
        pairing[a] = b
        pairing[b] = a
    if set(pairing) != hset:
        raise InvalidInvolution("pairing does not cover every half-edge")

    rotation = doc["rotation"]
    if set(rotation) != set(mult):
        raise InvalidRotation("rotation keys must be exactly the vertices")
    if not isinstance(rotation, dict):
        raise SchemaError("rotation must be a JSON object")
    seen = set()
    for v, cyc in rotation.items():
        if not isinstance(cyc, list) or len(set(cyc)) != len(cyc):
            raise InvalidRotation(f"rotation at {v!r} must be a duplicate-free list")
        for h in cyc:
            if h not in hset:
                raise InvalidRotation(f"rotation at {v!r} names unknown half-edge {h!r}")
            if incidence[h] != v:
                raise InvalidRotation(f"half-edge {h!r} listed at {v!r} but incident to "
                                      f"{incidence[h]!r}")
            seen.add(h)
    if seen != hset:
        raise InvalidRotation("some half-edge appears in no rotation")

    return mult, halves, incidence, pairing, rotation


def _bfs(g):
    """Breadth-first search from the smallest vertex, half-edges tried in
    rotation order: {vertex: (parent vertex, half-edge) or None for the
    start}, in discovery order."""
    start = g.vertices()[0]
    tree = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for h in g.rotation[v]:
            w = g.incidence[g.partner(h)]
            if w not in tree:
                tree[w] = (v, h)
                queue.append(w)
    return tree


def _check_connected(g):
    if not g.multiplicity:
        raise SchemaError("graph has no vertices")
    if not g.edges:
        raise SchemaError("graph has no edges")
    missing = sorted(g.multiplicity.keys() - _bfs(g).keys())
    if missing:
        raise Disconnected(f"unreachable vertices: {missing}")


class Bipartition:
    __slots__ = ("part_one", "part_two")

    def __init__(self, part_one, part_two):
        self.part_one = frozenset(part_one)
        self.part_two = frozenset(part_two)

    def __repr__(self):
        return f"Bipartition({sorted(self.part_one)}, {sorted(self.part_two)})"


def bipartition(g):
    """Two-color by BFS from the lexicographically smallest vertex (placed in V1).

    Raises NonBipartite with a witness odd closed walk when no two-coloring
    exists.  Loops are reported as length-1 witnesses; the witness of an odd
    cycle comes from the search's first edge whose ends share a color.
    """
    for h in g.half_edges:
        if g.incidence[h] == g.incidence[g.partner(h)]:
            v = g.incidence[h]
            raise NonBipartite(f"loop at vertex {v!r}", witness=[v])
    tree = _bfs(g)
    color = {}
    for v, edge in tree.items():
        color[v] = 1 if edge is None else 3 - color[edge[0]]
    for v in tree:
        for h in g.rotation[v]:
            w = g.incidence[g.partner(h)]
            if color[w] == color[v]:
                raise NonBipartite(f"odd cycle through {v!r} and {w!r}",
                                   witness=_odd_cycle_witness(tree, v, w))
    part_one = {v for v, c in color.items() if c == 1}
    part_two = {v for v, c in color.items() if c == 2}
    return Bipartition(part_one, part_two)


def _odd_cycle_witness(tree, v, w):
    def chain(x):
        out = [x]
        while tree[x] is not None:
            x = tree[x][0]
            out.append(x)
        return out

    cv, cw = chain(v), chain(w)
    common = next(x for x in cv if x in set(cw))
    left = cv[: cv.index(common) + 1]
    right = cw[: cw.index(common)]
    return left + right[::-1]


def check_bipartition(g, bp):
    """True iff bp is a valid bipartition of g (partition + proper 2-coloring)."""
    verts = set(g.vertices())
    if set(bp.part_one) | set(bp.part_two) != verts or set(bp.part_one) & set(bp.part_two):
        return False
    for a, b in g.edges.values():
        va, vb = g.incidence[a], g.incidence[b]
        if (va in bp.part_one) == (vb in bp.part_one):
            return False
    return True


def spanning_tree(g):
    """BFS spanning tree from the smallest vertex, edges tried in rotation order.

    Returns the set of edge ids in the tree.
    """
    return {g.edge_of(edge[1]) for edge in _bfs(g).values() if edge}


class BoundaryDecomposition:
    __slots__ = ("faces", "bigon_faces")

    def __init__(self, faces, bigon_faces):
        self.faces = faces
        self.bigon_faces = bigon_faces


def boundary_walks(g):
    """Orbits of the face permutation iota o rho.

    A length-2 orbit counts as a bigon only when both vertices it visits are
    non-truncated; the degenerate boundary of a pendant edge is not a bigon.
    """
    remaining = set(g.half_edges)
    faces = []
    for h0 in g.half_edges:
        if h0 not in remaining:
            continue
        face = []
        h = h0
        while True:
            face.append(h)
            remaining.discard(h)
            h = g.partner(g.successor(h))
            if h == h0:
                break
        faces.append(face)
    bigons = [f for f in faces
              if len(f) == 2 and all(not g.is_truncated(g.incidence[h]) for h in f)]
    return BoundaryDecomposition(faces, bigons)
