"""Bundled example graphs and rule-system documents.

Graph documents follow the schema of :mod:`bga.ribbon`.  Rule documents are
JSON objects ``{"rules": [{"tip": [...], "rhs": [[coeff, [word]], ...]}]}``
with coefficients given as fraction strings; they override the derived
reduction system for graphs that admit no bipartition (loops).

Fixture names accepted by :func:`fixture_doc` and the CLI:

    EX1      two edges, three vertices, one multiplicity-2 vertex
    DBL      two vertices joined by a double edge (one bigon pair)
    LOC      single edge, multiplicities (m, 1); parameter m, default 2
    ANNULUS  one vertex, one loop (not bipartite; rules bundled)
    TORUS    one vertex, two interleaved loops (not bipartite; rules bundled)
    ANN2     loop plus pendant edge (not bipartite; rules bundled)
"""

from __future__ import annotations

import json

from .errors import SchemaError

_EX1 = {
    "vertices": [
        {"id": "v1", "multiplicity": 1},
        {"id": "v2", "multiplicity": 2},
        {"id": "w", "multiplicity": 1},
    ],
    "half_edges": ["a", "d", "g", "b"],
    "incidence": {"a": "v1", "d": "w", "g": "w", "b": "v2"},
    "pairing": [["a", "d"], ["b", "g"]],
    "rotation": {"v1": ["a"], "w": ["d", "g"], "v2": ["b"]},
}

_DBL = {
    "vertices": [
        {"id": "v", "multiplicity": 1},
        {"id": "w", "multiplicity": 1},
    ],
    "half_edges": ["v1", "v2", "w1", "w2"],
    "incidence": {"v1": "v", "v2": "v", "w1": "w", "w2": "w"},
    "pairing": [["v1", "w1"], ["v2", "w2"]],
    "rotation": {"v": ["v1", "v2"], "w": ["w1", "w2"]},
}

_ANNULUS = {
    "vertices": [{"id": "q", "multiplicity": 1}],
    "half_edges": ["x", "y"],
    "incidence": {"x": "q", "y": "q"},
    "pairing": [["x", "y"]],
    "rotation": {"q": ["x", "y"]},
}

_TORUS = {
    "vertices": [{"id": "p", "multiplicity": 1}],
    "half_edges": ["a1", "b1", "a2", "b2"],
    "incidence": {"a1": "p", "b1": "p", "a2": "p", "b2": "p"},
    "pairing": [["a1", "a2"], ["b1", "b2"]],
    "rotation": {"p": ["a1", "b1", "a2", "b2"]},
}

_ANN2 = {
    "vertices": [
        {"id": "q", "multiplicity": 1},
        {"id": "p", "multiplicity": 1},
    ],
    "half_edges": ["a1", "a2", "bq", "bp"],
    "incidence": {"a1": "q", "a2": "q", "bq": "q", "bp": "p"},
    "pairing": [["a1", "a2"], ["bq", "bp"]],
    "rotation": {"q": ["a1", "a2", "bq"], "p": ["bp"]},
}


def _loc(m):
    return {
        "vertices": [
            {"id": "u", "multiplicity": m},
            {"id": "v", "multiplicity": 1},
        ],
        "half_edges": ["x", "y"],
        "incidence": {"x": "u", "y": "v"},
        "pairing": [["x", "y"]],
        "rotation": {"u": ["x"], "v": ["y"]},
    }


# Rule systems for the non-bipartite fixtures.  Arrow names are the
# half-edge names; a word lists arrows left to right with the rightmost
# applied first.

_ANNULUS_RULES = {
    "rules": [
        {"tip": ["x", "y"], "rhs": [["1", ["y", "x"]]]},
        {"tip": ["x", "x"], "rhs": []},
        {"tip": ["y", "y"], "rhs": []},
    ]
}

_TORUS_RULES = {
    "rules": [
        {"tip": ["b2", "a2", "b1", "a1"], "rhs": [["1", ["b1", "a1", "b2", "a2"]]]},
        {"tip": ["a1", "b2", "a2", "b1"], "rhs": [["1", ["a2", "b1", "a1", "b2"]]]},
        {"tip": ["a2", "b1", "a1", "b2", "a2"], "rhs": []},
        {"tip": ["b2", "a1"], "rhs": []},
        {"tip": ["a1", "b1"], "rhs": []},
        {"tip": ["b1", "a2"], "rhs": []},
        {"tip": ["a2", "b2"], "rhs": []},
    ]
}

_ANN2_RULES = {
    "rules": [
        {"tip": ["a1", "bq", "a2"], "rhs": [["1", ["bq", "a2", "a1"]]]},
        {"tip": ["bq", "a2", "a1", "bq"], "rhs": []},
        {"tip": ["a1", "a1"], "rhs": []},
        {"tip": ["a2", "bq"], "rhs": []},
    ]
}

_GRAPHS = {
    "EX1": _EX1,
    "DBL": _DBL,
    "ANNULUS": _ANNULUS,
    "TORUS": _TORUS,
    "ANN2": _ANN2,
}

_RULES = {
    "ANNULUS": _ANNULUS_RULES,
    "TORUS": _TORUS_RULES,
    "ANN2": _ANN2_RULES,
}


def fixture_doc(name, m=2):
    """JSON text of a bundled graph.  LOC takes a multiplicity parameter;
    the spellings LOC, LOC_m and LOC_3 style names are accepted."""
    key = name.upper()
    if key in _GRAPHS:
        return json.dumps(_GRAPHS[key])
    if key == "LOC" or key.startswith("LOC_"):
        if key.startswith("LOC_"):
            try:
                m = int(key[4:])
            except ValueError:
                raise SchemaError(f"bad LOC parameter in {name!r}") from None
        if m < 1:
            raise SchemaError("LOC multiplicity must be >= 1")
        return json.dumps(_loc(m))
    raise SchemaError(f"unknown fixture {name!r}")


def fixture_rules(name):
    """Bundled rule-system document for a non-bipartite fixture, or None."""
    doc = _RULES.get(name.upper())
    return json.dumps(doc) if doc is not None else None


# -- generated family ---------------------------------------------------------
#
# A deterministic collection of bipartite graphs used by the broad-coverage
# tests: even cycles, stars, and paths with small multiplicities.

def even_cycle_doc(n, mults):
    """Cycle on 2n vertices; mults has length 2n."""
    assert n >= 2 and len(mults) == 2 * n
    verts = [f"c{i}" for i in range(2 * n)]
    halves, incidence, pairing = [], {}, []
    rotation = {v: [] for v in verts}
    for i in range(2 * n):
        j = (i + 1) % (2 * n)
        a, b = f"h{i}f", f"h{j}b"
        halves += [a, b]
        incidence[a] = verts[i]
        incidence[b] = verts[j]
        pairing.append([a, b])
        rotation[verts[i]].append(a)
        rotation[verts[j]].append(b)
    return json.dumps({
        "vertices": [{"id": v, "multiplicity": m} for v, m in zip(verts, mults)],
        "half_edges": halves,
        "incidence": incidence,
        "pairing": pairing,
        "rotation": rotation,
    })


def star_doc(k, mults):
    """Star with k leaves; mults = [center, leaf1, ..., leafk]."""
    assert k >= 1 and len(mults) == k + 1
    verts = ["c"] + [f"l{i}" for i in range(k)]
    halves, incidence, pairing = [], {}, []
    rotation = {v: [] for v in verts}
    for i in range(k):
        a, b = f"s{i}", f"t{i}"
        halves += [a, b]
        incidence[a] = "c"
        incidence[b] = f"l{i}"
        pairing.append([a, b])
        rotation["c"].append(a)
        rotation[f"l{i}"].append(b)
    return json.dumps({
        "vertices": [{"id": v, "multiplicity": m} for v, m in zip(verts, mults)],
        "half_edges": halves,
        "incidence": incidence,
        "pairing": pairing,
        "rotation": rotation,
    })


def path_doc(n, mults):
    """Path on n vertices (n-1 edges); mults has length n."""
    assert n >= 2 and len(mults) == n
    verts = [f"p{i}" for i in range(n)]
    halves, incidence, pairing = [], {}, []
    rotation = {v: [] for v in verts}
    for i in range(n - 1):
        a, b = f"r{i}", f"l{i + 1}"
        halves += [a, b]
        incidence[a] = verts[i]
        incidence[b] = verts[i + 1]
        pairing.append([a, b])
        rotation[verts[i]].append(a)
        rotation[verts[i + 1]].append(b)
    return json.dumps({
        "vertices": [{"id": v, "multiplicity": m} for v, m in zip(verts, mults)],
        "half_edges": halves,
        "incidence": incidence,
        "pairing": pairing,
        "rotation": rotation,
    })


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
