"""Bundled example graphs and rule-system documents.

Graph documents follow the schema of :mod:`bga.ribbon`.  Rule documents are
JSON objects ``{"rules": [{"tip": [...], "rhs": [[coeff, [word]], ...]}]}``
with coefficients given as fraction strings; they override the derived
reduction system for graphs that admit no bipartition (loops).

Fixture names accepted by :func:`fixture_doc` and the CLI:

    EX1      two edges, three vertices, one multiplicity-2 vertex
    DBL      two vertices joined by a double edge (one bigon pair)
    LOC_m    single edge, multiplicities (m, 1); LOC is LOC_2
    ANNULUS  one vertex, one loop (not bipartite; rules bundled)
    TORUS    one vertex, two interleaved loops (not bipartite; rules bundled)
    ANN2     loop plus pendant edge (not bipartite; rules bundled)
"""

from __future__ import annotations

import json
import re

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


def fixture_doc(name):
    """JSON text of a bundled graph, or None for a name outside the fixture
    namespace.  LOC_m names the LOC graph of multiplicity m, written in
    ASCII digits only, and LOC is LOC_2; a LOC_ name with any other
    parameter, or with more digits than ``int`` converts, is a
    SchemaError."""
    key = name.upper()
    if key in _GRAPHS:
        return json.dumps(_GRAPHS[key])
    if key == "LOC":
        key = "LOC_2"
    if key.startswith("LOC_"):
        try:
            m = int(key[4:]) if re.fullmatch(r"[0-9]+", key[4:]) else None
        except ValueError:      # more digits than int() converts
            m = None
        if m is None:
            raise SchemaError(f"bad LOC parameter in {name!r}")
        if m < 1:
            raise SchemaError("LOC multiplicity must be >= 1")
        return json.dumps(_loc(m))
    return None


def fixture_rules(name):
    """Bundled rule-system document for a non-bipartite fixture, or None."""
    doc = _RULES.get(name.upper())
    return json.dumps(doc) if doc is not None else None
