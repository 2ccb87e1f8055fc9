"""Per-command checks of the CLI's JSON output against closed counts.

Every expected number comes from the graph document (see ``graphs``), never
from the engine, so a wrong answer cannot vouch for itself.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from collections import Counter

import graphs


def projective_dims(doc):
    """Basis words per quiver vertex (graph edge ``a|b``): the dimension
    m(u)·val(u) + m(v)·val(v) of the projective at the edge u–v."""
    mult = {e["id"]: e["multiplicity"] for e in doc["vertices"]}
    out = {}
    for a, b in doc["pairing"]:
        size = 0
        for h in (a, b):
            v = doc["incidence"][h]
            size += mult[v] * len(doc["rotation"][v])
        out["|".join(sorted((a, b)))] = size
    return out


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _expect(pairs):
    return [f"{what}: got {got!r}, expected {want!r}"
            for what, got, want in pairs if got != want]


def _basis_problems(doc, basis, dim):
    per_vertex = Counter(entry["vertex"] for entry in basis)
    return _expect([
        ("len(basis)", len(basis), dim),
        ("basis words per vertex", dict(per_vertex), projective_dims(doc)),
    ])


def _hh2(doc, argv, out):
    want = graphs.hh2_count(doc)
    return _expect([
        ("hh2_dim", out["hh2_dim"], want),
        ("formula", out["formula"], want),
        ("formula_matches", out["formula_matches"], True),
        ("cocycle_dim - coboundary_dim",
         out["cocycle_dim"] - out["coboundary_dim"], want),
        ("len(basis)", len(out["basis"]), want),
    ])


def _cocycles(doc, argv, out):
    want = graphs.family_counts(doc)
    got = Counter(c["kind"] for c in out["cocycles"])
    ver = out["verification"]
    total = sum(want.values())
    return _expect([
        ("family kinds", {k: got[k] for k in set(got) | set(want)},
         {k: want.get(k, 0) for k in set(got) | set(want)}),
        ("verification.complete", ver["complete"], True),
        ("verification.all_cocycles", ver["all_cocycles"], True),
        ("verification.independent_mod_coboundaries",
         ver["independent_mod_coboundaries"], True),
        ("verification.count", ver["count"], total),
        ("verification.hh2_dim", ver["hh2_dim"], total),
    ])


def _deform(doc, argv, out):
    kind, t = _flag(argv, "--deform-type"), _flag(argv, "--t")
    problems = _expect([("type", out["type"], kind), ("t", out["t"], t)])
    if t != "1":
        return problems + _expect([
            ("passes", out["passes"], True),
            ("witness", out["witness"], None),
        ])
    dim = graphs.dimension(doc)
    return problems + _expect([
        ("dimension", out["dimension"], dim),
        ("radical_dim", out["radical_dim"], 0),
        ("semisimple", out["semisimple"], True),
        ("gram_rank", out["gram_rank"], dim),
    ]) + _basis_problems(doc, out["basis"], dim)


def _basis(doc, argv, out):
    dim = graphs.dimension(doc)
    bad = [p for p in out["products"]
           if not (0 <= p[0] < dim and 0 <= p[1] < dim
                   and all(0 <= k < dim for k, _ in p[2]))]
    return _expect([
        ("dim", out["dim"], dim),
        ("products with an index out of range", len(bad), 0),
    ]) + _basis_problems(doc, out["basis"], dim)


_CHECKS = {"hh2": _hh2, "cocycles": _cocycles, "deform": _deform,
           "basis": _basis}


def check_run(doc, argv, rc, text):
    """Problems with one CLI call: its exit code, and its stdout checked
    against the closed counts of the input graph."""
    if rc != 0:
        return [f"exit code {rc}: {text[:200]}"]
    try:
        out = json.loads(text)
    except ValueError:
        return [f"stdout is not JSON: {text[:200]}"]
    if not isinstance(out, dict) or "error" in out:
        return [f"error output: {text[:200]}"]
    try:
        return _CHECKS[argv[0]](doc, argv, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]
