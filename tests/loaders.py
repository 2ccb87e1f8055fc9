"""Fixture loaders shared by the tests: the named ribbon graphs, their
reduction systems (the bundled rules when a fixture has them) and their
algebras, and the generated family of bipartite graph documents."""

import json

from bga.fixtures import fixture_doc, fixture_rules
from bga.presentation import quiver_from_graph, reduction_system, rules_from_doc
from bga.rewrite import FiniteDimAlgebra
from bga.ribbon import parse_ribbon_graph


NAMED = ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2",
         "LOC_1", "LOC_2", "LOC_3", "LOC_4", "LOC_5")


def graph(name):
    return parse_ribbon_graph(fixture_doc(name))


def system_for(name, bp=None):
    g = graph(name)
    if fixture_rules(name):
        return rules_from_doc(quiver_from_graph(g),
                              json.loads(fixture_rules(name)))
    return reduction_system(g, bp)


def algebra(name, bp=None):
    return FiniteDimAlgebra(system_for(name, bp))


# -- generated family ---------------------------------------------------------
#
# A deterministic collection of bipartite graphs used by the broad-coverage
# tests: even cycles, stars, and paths with small multiplicities.

def _doc(verts, mults, edges):
    """Graph document on the vertices with these multiplicities; each edge
    is (half, vertex, half, vertex), listed in rotation order at both ends."""
    rotation = {v: [] for v in verts}
    incidence = {}
    for a, va, b, vb in edges:
        incidence[a], incidence[b] = va, vb
        rotation[va].append(a)
        rotation[vb].append(b)
    return json.dumps({
        "vertices": [{"id": v, "multiplicity": m} for v, m in zip(verts, mults)],
        "half_edges": list(incidence),
        "incidence": incidence,
        "pairing": [[a, b] for a, _, b, _ in edges],
        "rotation": rotation,
    })


def even_cycle_doc(n, mults):
    """Cycle on 2n vertices; mults has length 2n."""
    m = 2 * n
    assert n >= 2 and len(mults) == m
    verts = [f"c{i}" for i in range(m)]
    return _doc(verts, mults, [(f"h{i}f", verts[i], f"h{(i + 1) % m}b",
                                verts[(i + 1) % m]) for i in range(m)])


def star_doc(k, mults):
    """Star with k leaves; mults = [center, leaf1, ..., leafk]."""
    assert k >= 1 and len(mults) == k + 1
    verts = ["c"] + [f"l{i}" for i in range(k)]
    return _doc(verts, mults,
                [(f"s{i}", "c", f"t{i}", f"l{i}") for i in range(k)])


def path_doc(n, mults):
    """Path on n vertices (n-1 edges); mults has length n."""
    assert n >= 2 and len(mults) == n
    verts = [f"p{i}" for i in range(n)]
    return _doc(verts, mults, [(f"r{i}", verts[i], f"l{i + 1}", verts[i + 1])
                               for i in range(n - 1)])


def generated_family():
    """Deterministic list of (label, doc) pairs, all bipartite, >= 20 items."""
    out = []
    mult_wheel = [1, 2, 3, 1, 3, 2, 2, 1]

    def take(k, offset):
        return [mult_wheel[(offset + i) % len(mult_wheel)] for i in range(k)]

    for n in (2, 3, 4):
        for off in (0, 1, 3):
            out.append((f"cycle{2 * n}o{off}", even_cycle_doc(n, take(2 * n, off))))
    for k in (1, 2, 3, 4):
        for off in (0, 2):
            out.append((f"star{k}o{off}", star_doc(k, take(k + 1, off))))
    for n in (2, 3, 4, 5):
        out.append((f"path{n}", path_doc(n, take(n, n))))
    return out
