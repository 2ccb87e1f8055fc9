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
>>> sorted(g.edges())
[('h1', 'h2')]
>>> g.valence('u')
1
"""

from __future__ import annotations

import json
from collections import deque

from .errors import (
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
    __slots__ = ("multiplicity", "half_edges", "incidence", "pairing", "rotation")

    def __init__(self, multiplicity, half_edges, incidence, pairing, rotation):
        self.multiplicity = dict(multiplicity)   # vertex id -> m(v) >= 1
        self.half_edges = list(half_edges)
        self.incidence = dict(incidence)         # half-edge -> vertex (the map s)
        self.pairing = dict(pairing)             # involution iota, both directions stored
        self.rotation = {v: list(hs) for v, hs in rotation.items()}

    # -- basic accessors ---------------------------------------------------

    def vertices(self):
        return sorted(self.multiplicity)

    def partner(self, h):
        return self.pairing[h]

    def successor(self, h):
        """rho(h): next half-edge in the rotation at the vertex of h."""
        cyc = self.rotation[self.incidence[h]]
        i = cyc.index(h)
        return cyc[(i + 1) % len(cyc)]

    def predecessor(self, h):
        cyc = self.rotation[self.incidence[h]]
        i = cyc.index(h)
        return cyc[i - 1]

    def edge_of(self, h):
        """Canonical edge id: the two half-edge ids joined by '|', smaller first."""
        a, b = sorted((h, self.pairing[h]))
        return f"{a}|{b}"

    def edges(self):
        seen = set()
        out = []
        for h in self.half_edges:
            k = tuple(sorted((h, self.pairing[h])))
            if k not in seen:
                seen.add(k)
                out.append(k)
        return out

    def edge_ids(self):
        return sorted(f"{a}|{b}" for a, b in self.edges())

    def valence(self, v):
        return len(self.rotation[v])

    def is_truncated(self, v):
        return self.multiplicity[v] == 1 and self.valence(v) == 1

    def dimension_sum(self):
        return sum(m * self.valence(v) ** 2 for v, m in self.multiplicity.items())

    def serialize(self):
        pairs = sorted(tuple(sorted(p)) for p in {tuple(sorted((h, self.pairing[h])))
                                                  for h in self.half_edges})
        doc = {
            "vertices": [{"id": v, "multiplicity": self.multiplicity[v]}
                         for v in self.vertices()],
            "half_edges": list(self.half_edges),
            "incidence": {h: self.incidence[h] for h in self.half_edges},
            "pairing": [list(p) for p in pairs],
            "rotation": {v: list(self.rotation[v]) for v in self.vertices()},
        }
        return json.dumps(doc)


def parse_ribbon_graph(text):
    """Parse and validate a ribbon-graph document (JSON text or dict)."""
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        doc = text
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
        if not isinstance(m, int) or m < 1:
            raise SchemaError(f"multiplicity of {vid!r} must be a positive integer")
        mult[vid] = m

    halves = doc["half_edges"]
    if len(set(halves)) != len(halves):
        raise SchemaError("duplicate half-edge id")
    hset = set(halves)
    if not all(isinstance(h, str) for h in halves):
        raise SchemaError("half-edge ids must be strings")

    incidence = doc["incidence"]
    if set(incidence) != hset:
        raise SchemaError("incidence keys must be exactly the half-edges")
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

    g = RibbonGraph(mult, halves, incidence, pairing, rotation)
    _check_connected(g)
    return g


def _check_connected(g):
    verts = g.vertices()
    if not verts:
        raise SchemaError("graph has no vertices")
    seen = {verts[0]}
    queue = deque([verts[0]])
    while queue:
        v = queue.popleft()
        for h in g.rotation[v]:
            w = g.incidence[g.partner(h)]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != len(verts):
        missing = sorted(set(verts) - seen)
        raise Disconnected(f"unreachable vertices: {missing}")


class Bipartition:
    __slots__ = ("part_one", "part_two")

    def __init__(self, part_one, part_two):
        self.part_one = frozenset(part_one)
        self.part_two = frozenset(part_two)

    def side(self, v):
        if v in self.part_one:
            return 1
        if v in self.part_two:
            return 2
        raise KeyError(v)

    def swapped(self):
        return Bipartition(self.part_two, self.part_one)

    def __repr__(self):
        return f"Bipartition({sorted(self.part_one)}, {sorted(self.part_two)})"


def bipartition(g):
    """Two-color by BFS from the lexicographically smallest vertex (placed in V1).

    Raises NonBipartite with a witness odd closed walk when no two-coloring
    exists.  Loops are reported as length-1 witnesses.
    """
    for h in g.half_edges:
        if g.incidence[h] == g.incidence[g.partner(h)]:
            v = g.incidence[h]
            raise NonBipartite(f"loop at vertex {v!r}", witness=[v])
    start = g.vertices()[0]
    color = {start: 1}
    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for h in g.rotation[v]:
            w = g.incidence[g.partner(h)]
            if w not in color:
                color[w] = 3 - color[v]
                parent[w] = v
                queue.append(w)
            elif color[w] == color[v]:
                raise NonBipartite(f"odd cycle through {v!r} and {w!r}",
                                   witness=_odd_cycle_witness(parent, v, w))
    part_one = {v for v, c in color.items() if c == 1}
    part_two = {v for v, c in color.items() if c == 2}
    return Bipartition(part_one, part_two)


def _odd_cycle_witness(parent, v, w):
    def chain(x):
        out = [x]
        while parent[x] is not None:
            x = parent[x]
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
    for a, b in g.edges():
        va, vb = g.incidence[a], g.incidence[b]
        if (va in bp.part_one) == (vb in bp.part_one):
            return False
    return True


def spanning_tree(g):
    """BFS spanning tree from the smallest vertex, edges tried in rotation order.

    Returns the set of edge ids in the tree.
    """
    start = g.vertices()[0]
    seen = {start}
    tree = set()
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for h in g.rotation[v]:
            w = g.incidence[g.partner(h)]
            if w not in seen:
                seen.add(w)
                tree.add(g.edge_of(h))
                queue.append(w)
    return tree


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
