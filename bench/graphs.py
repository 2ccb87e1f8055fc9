"""Seeded random bipartite ribbon graphs, and the closed counts their outputs
are checked against.

Nothing here imports bga: the counts are read off the graph document alone,
so a check never trusts a number the engine computed.

A graph is drawn for a slot ``(shape, dim, hh2)``: the shape says how its
edges are laid out, and the sample is redrawn until the algebra dimension
sum(m(v) * valence(v)^2) equals dim and, unless hh2 is None, the closed
HH^2 count equals hh2.  Every vertex gets a random
rotation, so the same edge set gives different faces and bigons per seed.
"""

from __future__ import annotations

SHAPES = ("random", "hub", "cycle", "star")

_MAX_DRAWS = 100_000


def graph_doc(mults, edges, rng):
    """Ribbon-graph document from vertex multiplicities and an edge list.

    ``mults`` maps vertex id -> multiplicity, ``edges`` lists (u, v) pairs
    (a repeated pair is a multi-edge).  Edge i has half-edges ``h{i}a`` at u
    and ``h{i}b`` at v; the rotation at each vertex is a random order of its
    half-edges.
    """
    halves, incidence, pairing = [], {}, []
    rotation = {v: [] for v in mults}
    for i, (u, v) in enumerate(edges):
        a, b = f"h{i}a", f"h{i}b"
        halves += [a, b]
        incidence[a], incidence[b] = u, v
        pairing.append([a, b])
        rotation[u].append(a)
        rotation[v].append(b)
    for v in sorted(rotation):
        rng.shuffle(rotation[v])
    return {
        "vertices": [{"id": v, "multiplicity": mults[v]} for v in sorted(mults)],
        "half_edges": halves,
        "incidence": incidence,
        "pairing": pairing,
        "rotation": {v: rotation[v] for v in sorted(rotation)},
    }


def _mult(rng):
    return rng.choice((1, 1, 2, 2, 3))


def _random_edges(rng, n1, n2, extra):
    """Random spanning tree between the parts plus ``extra`` edges, which may
    repeat a pair."""
    ones = [f"a{i}" for i in range(n1)]
    twos = [f"b{i}" for i in range(n2)]
    rest = rng.sample(ones[1:] + twos, n1 + n2 - 1)
    placed, edges = [ones[0]], []
    while rest:
        # vertex ids start with their part's letter; attach the first vertex
        # that has a placed neighbour candidate in the other part
        for v in rest:
            other = [w for w in placed if w[0] != v[0]]
            if other:
                break
        rest.remove(v)
        edges.append((rng.choice(other), v))
        placed.append(v)
    for _ in range(extra):
        edges.append((rng.choice(ones), rng.choice(twos)))
    return ones + twos, edges


def _split(total, parts, rng):
    """Random multiplicities in 1..3 for ``parts`` vertices, summing to
    ``total``."""
    mults = [1] * parts
    for _ in range(total - parts):
        i = rng.choice([j for j, m in enumerate(mults) if m < 3])
        mults[i] += 1
    return mults


def _star_options(dim):
    """(leaves, centre multiplicity) of the stars of this dimension: the
    centre adds mult * leaves^2, each leaf its multiplicity."""
    return [(k, mc) for k in range(2, 10) for mc in (1, 2, 3)
            if k <= dim - mc * k * k <= 3 * k]


def _cycle_options(dim):
    """Half-lengths n of the even cycles of this dimension: 2n vertices of
    valence 2 add 4 * (sum of multiplicities)."""
    if dim % 4:
        return []
    return [n for n in range(2, 25) if 2 * n <= dim // 4 <= 6 * n]


def reaches(shape, dim):
    """Whether ``sample`` can draw the shape at this dimension.  A hub has a
    valence-4 centre, three leaves and two more vertices, so starts at 24,
    and draws below 27 are rare."""
    if shape == "star":
        return bool(_star_options(dim))
    if shape == "cycle":
        return bool(_cycle_options(dim))
    return dim >= (27 if shape == "hub" else 6)


def _draw(shape, dim, rng):
    """One (mults, edges) sample of the given shape; stars and cycles are
    drawn at exactly ``dim``, the other shapes near it."""
    if shape == "cycle":
        n = rng.choice(_cycle_options(dim))
        verts = [f"a{i}" if i % 2 == 0 else f"b{i}" for i in range(2 * n)]
        edges = [(verts[i], verts[(i + 1) % (2 * n)]) for i in range(2 * n)]
        return dict(zip(verts, _split(dim // 4, 2 * n, rng))), edges
    if shape == "star":
        k, mc = rng.choice(_star_options(dim))
        leaves = [f"b{i}" for i in range(k)]
        mults = dict(zip(leaves, _split(dim - mc * k * k, k, rng)))
        mults["a0"] = mc
        return mults, [("a0", v) for v in leaves]
    if shape == "hub":
        # a high-valence centre with leaves, plus a small random graph hung
        # off it, some of it by multi-edges
        k = rng.randint(3, 7)
        verts, edges = _random_edges(rng, 2, rng.randint(1, 3), rng.randint(0, 2))
        edges += [("a0", f"b{100 + i}") for i in range(k)]
        verts += [f"b{100 + i}" for i in range(k)]
        mults = {v: _mult(rng) for v in verts}
        mults["a0"] = rng.choice((1, 2))
        return mults, edges
    n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
    verts, edges = _random_edges(rng, n1, n2, rng.randint(0, 4))
    return {v: _mult(rng) for v in verts}, edges


def dimension(doc):
    """Algebra dimension: sum over vertices of m(v) * valence(v)^2."""
    return sum(e["multiplicity"] * len(doc["rotation"][e["id"]]) ** 2
               for e in doc["vertices"])


def sample(shape, dim, rng, hh2=None):
    """Graph document of the shape whose algebra dimension is ``dim`` and,
    when ``hh2`` is given, whose closed HH^2 count is ``hh2``.

    Graphs with fewer than two edges are skipped: the closed counts below
    do not cover them.
    """
    for _ in range(_MAX_DRAWS):
        mults, edges = _draw(shape, dim, rng)
        if len(edges) < 2:
            continue
        doc = graph_doc(mults, edges, rng)
        if dimension(doc) == dim and hh2 in (None, hh2_count(doc)):
            return doc
    raise ValueError(f"no {shape} graph of dimension {dim} and HH^2 count "
                     f"{hh2} in {_MAX_DRAWS} draws")


# -- closed counts ------------------------------------------------------------

def _partner(doc):
    out = {}
    for a, b in doc["pairing"]:
        out[a], out[b] = b, a
    return out


def _successor(doc):
    out = {}
    for hs in doc["rotation"].values():
        for i, h in enumerate(hs):
            out[h] = hs[(i + 1) % len(hs)]
    return out


def bigon_count(doc):
    """Faces (orbits of h -> partner(successor(h))) of length two whose
    vertices are both non-truncated."""
    partner, succ = _partner(doc), _successor(doc)
    mult = {e["id"]: e["multiplicity"] for e in doc["vertices"]}

    def truncated(h):
        v = doc["incidence"][h]
        return mult[v] == 1 and len(doc["rotation"][v]) == 1

    seen, count = set(), 0
    for h0 in doc["half_edges"]:
        if h0 in seen:
            continue
        face, h = [], h0
        while h not in seen:
            seen.add(h)
            face.append(h)
            h = partner[succ[h]]
        if len(face) == 2 and not any(truncated(h) for h in face):
            count += 1
    return count


def family_counts(doc):
    """Expected size of each kind of the standard cocycle family of a
    bipartite graph with at least two edges: one (A), sum(m - 1) of (B),
    |E| - |V| + 1 of (C), and one D1 and one D2 per bigon."""
    mults = [e["multiplicity"] for e in doc["vertices"]]
    bigons = bigon_count(doc)
    return {"A": 1, "B": sum(m - 1 for m in mults),
            "C": len(doc["pairing"]) - len(mults) + 1,
            "D1": bigons, "D2": bigons}


def hh2_count(doc):
    """Closed dimension of HH^2: the size of the standard family."""
    return sum(family_counts(doc).values())
