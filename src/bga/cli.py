"""Batch frontend: load a graph or rule document, run one pipeline stage,
emit a JSON report.

Exit codes: 0 success, 1 a computed check failed (non-confluent system,
obstructed deformation, inapplicable request), 2 unusable input.  Identical
invocations produce byte-identical output; every failure is still a JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .deform import deformed_algebra, semisimplicity, verify_lift
from .errors import (
    DOCUMENT_ERRORS,
    BgaError,
    Disconnected,
    InvalidBipartition,
    InvalidInvolution,
    InvalidRotation,
    NonBipartite,
    NotApplicable,
    NotBipartite,
    SchemaError,
)
from .fixtures import fixture_doc, fixture_rules
from .hochschild import hh2, standard_cocycles, verify_basis
from .paths import element_from_doc, element_to_doc
from .presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
    two_cycle_set,
)
from .rewrite import check_diamond, irreducible_basis, irreducible_words
from .ribbon import Bipartition, bipartition, boundary_walks, parse_ribbon_graph

_USAGE_ERRORS = (SchemaError, InvalidInvolution, InvalidRotation, Disconnected,
                 NonBipartite, NotBipartite, InvalidBipartition)

COMMANDS = ("validate", "info", "basis", "diamond", "hh2", "cocycles",
            "deform", "selftest")


class UsageError(Exception):
    pass


def _error_code(exc):
    name = type(exc).__name__
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
    return snake[:-6] if snake.endswith("_error") else snake


def emit(doc, args):
    if args.pretty:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_graph(args):
    if args.input is None:
        raise UsageError("--input is required for this command")
    try:
        text = fixture_doc(args.input)
        args.fixture = args.input.upper()
    except SchemaError:
        args.fixture = None
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
    return parse_ribbon_graph(text)


def _parse_bipartition(text):
    halves = text.split("|")
    if len(halves) != 2:
        raise UsageError('bipartition must look like "v1,v2|w"')
    parts = [{v.strip() for v in h.split(",") if v.strip()} for h in halves]
    if not parts[0] or not parts[1]:
        raise UsageError("both sides of the bipartition must be non-empty")
    return Bipartition(parts[0], parts[1])


def _load_system(args, g):
    """The reduction system for a run: an explicit --rules document, the
    bundled one for the non-bipartite fixtures, or a fresh build."""
    rules_text = None
    if args.rules:
        try:
            with open(args.rules, "r", encoding="utf-8") as fh:
                rules_text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.rules}: {exc}") from exc
    elif args.fixture:
        rules_text = fixture_rules(args.fixture)
    bp = _parse_bipartition(args.bipartition) if args.bipartition else None
    if rules_text is not None:
        quiver = quiver_from_graph(g, bp)
        return rules_from_doc(quiver, json.loads(rules_text)), None
    return reduction_system(g, bp), bp


def _family_bipartition(args, g, bp):
    """The bipartition the standard cocycles use: the one the presentation
    was built from, else --bipartition, else the graph's own."""
    if bp is not None:
        return bp
    return _parse_bipartition(args.bipartition) if args.bipartition \
        else bipartition(g)


def _graph_doc(g):
    walks = boundary_walks(g)
    try:
        bipartition(g)
        bipartite = True
    except NonBipartite:
        bipartite = False
    return {
        "vertices": len(g.vertices()),
        "edges": len(g.edge_ids()),
        "half_edges": len(g.half_edges),
        "faces": len(walks.faces),
        "bigon_faces": len(walks.bigon_faces),
        "truncated": sorted(v for v in g.vertices() if g.is_truncated(v)),
        "bipartite": bipartite,
        "dimension": g.dimension_sum(),
    }


def _basis_doc(alg):
    return [{"vertex": o, "word": list(w)} for o, w in alg.basis]


# -- commands -------------------------------------------------------------------

def cmd_validate(args):
    g = _load_graph(args)
    doc = _graph_doc(g)
    doc["ok"] = True
    emit(doc, args)
    return 0


def cmd_info(args):
    g = _load_graph(args)
    system, _ = _load_system(args, g)
    dim = len(irreducible_words(system))
    doc = _graph_doc(g)
    doc.update({
        "dim": dim,
        "formula": g.dimension_sum(),
        "match": dim == g.dimension_sum(),
        "betti": len(g.edge_ids()) - len(g.vertices()) + 1,
        "rules": len(system.rules),
        "two_cycles": len(two_cycle_set(system)),
    })
    emit(doc, args)
    return 0 if doc["match"] else 1


def cmd_basis(args):
    g = _load_graph(args)
    system, _ = _load_system(args, g)
    alg = irreducible_basis(system)
    products = []
    for (i, j) in sorted(alg.table):
        row = alg.table[(i, j)]
        products.append([i, j, [[k, str(row[k])] for k in sorted(row)]])
    emit({
        "dim": alg.dim,
        "vertices": list(alg.quiver.vertices),
        "arrows": {a: list(alg.quiver.arrows[a]) for a in sorted(alg.quiver.arrows)},
        "basis": _basis_doc(alg),
        "products": products,
    }, args)
    return 0


def cmd_diamond(args):
    g = _load_graph(args)
    system, _ = _load_system(args, g)
    report = check_diamond(system)
    failures = [{
        "word": list(amb.word),
        "left": element_to_doc(left),
        "right": element_to_doc(right),
    } for amb, left, right in report.failures]
    emit({"confluent": report.confluent,
          "ambiguities": report.n_ambiguities,
          "failures": failures}, args)
    return 0 if report.confluent else 1


def cmd_hh2(args):
    g = _load_graph(args)
    system, _ = _load_system(args, g)
    alg = irreducible_basis(system)
    report = hh2(system, alg, graph=g)
    emit(report.to_doc(), args)
    return 0


def cmd_cocycles(args):
    g = _load_graph(args)
    system, bp = _load_system(args, g)
    family = standard_cocycles(g, _family_bipartition(args, g, bp), system)
    report = verify_basis(hh2(system, irreducible_basis(system)),
                          [s.cochain for s in family])
    emit({"cocycles": [s.to_doc(system) for s in family],
          "verification": report.to_doc()}, args)
    return 0 if report.complete else 1


def _cochain_from_values_doc(system, doc):
    by_tip = {rule.tip[1]: ri for ri, rule in enumerate(system.rules)}
    cochain = {}
    try:
        for entry in doc["values"]:
            tip = tuple(entry["tip"])
            if tip not in by_tip:
                raise UsageError(f"no rule with tip {'*'.join(tip)}")
            cochain[by_tip[tip]] = element_from_doc(system.quiver,
                                                    entry["element"])
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed cochain document: {exc!r}") from exc
    return cochain


def _select_cochain(args, g, system, bp):
    if args.deform_type == "custom":
        if not args.cochain:
            raise UsageError("--deform-type custom needs --cochain FILE")
        try:
            with open(args.cochain, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {args.cochain}: {exc}") from exc
        return _cochain_from_values_doc(system, doc), "custom"
    for s in standard_cocycles(g, _family_bipartition(args, g, bp), system):
        if s.kind == args.deform_type:
            return s.cochain, s.label
    raise NotApplicable(
        f"graph has no type-({args.deform_type}) cocycle")


def cmd_deform(args):
    g = _load_graph(args)
    system, bp = _load_system(args, g)
    if not args.deform_type:
        raise UsageError("deform needs --deform-type")
    m = re.fullmatch(r"formal:(\d+)", args.t)
    if m is None and args.t != "1":
        raise UsageError('--t must be "1" or "formal:D"')
    degree = int(m.group(1)) if m else None
    if degree is not None and degree < 1:
        raise UsageError("truncation degree must be >= 1")
    cochain, label = _select_cochain(args, g, system, bp)
    if degree is not None:
        check = verify_lift(system, cochain, degree)
        doc = {"type": args.deform_type, "label": label, "t": args.t,
               "passes": check.passes, "ambiguities": check.n_ambiguities,
               "witness": None}
        if check.witness is not None:
            amb, _diff, order = check.witness
            doc["witness"] = {"word": list(amb.word), "order": order,
                              "detail": check.describe()}
        emit(doc, args)
        return 0 if check.passes else 1
    alg = deformed_algebra(system, cochain)
    doc = {"type": args.deform_type, "label": label, "t": "1",
           "dimension": alg.dim, "basis": _basis_doc(alg)}
    if args.check_semisimple:
        report = semisimplicity(alg)
        doc.update({"semisimple": report.semisimple,
                    "radical_dim": report.radical_dim,
                    "gram_rank": report.gram_rank})
    emit(doc, args)
    return 0


# -- selftest ---------------------------------------------------------------------

# dimensions every run must reproduce: algebra dimension, HH^2, and whether
# the closed HH^2 count applies
_SELFTEST_HH2 = {
    "EX1": 2, "DBL": 6, "ANNULUS": 5, "TORUS": 2, "ANN2": 4,
    "LOC_1": 1, "LOC_2": 2, "LOC_3": 3, "LOC_4": 4, "LOC_5": 5,
}


def _selftest_fixture(name):
    g = parse_ribbon_graph(fixture_doc(name))
    rules_text = fixture_rules(name)
    if rules_text:
        system = rules_from_doc(quiver_from_graph(g), json.loads(rules_text))
        bp = None
    else:
        bp = bipartition(g)
        system = reduction_system(g, bp)
    alg = irreducible_basis(system)
    checks = [
        {"name": "dimension", "expected": g.dimension_sum(), "got": alg.dim},
        {"name": "confluent", "expected": True,
         "got": bool(check_diamond(system))},
    ]
    report = hh2(system, alg, graph=g)
    checks.append({"name": "hh2_dim", "expected": _SELFTEST_HH2[name],
                   "got": report.hh2_dim})
    if report.formula is not None:
        checks.append({"name": "formula_matches", "expected": True,
                       "got": report.formula_matches})
    if bp is not None and len(g.edge_ids()) > 1:
        family = standard_cocycles(g, bp, system)
        basis = verify_basis(report, [s.cochain for s in family])
        checks.append({"name": "standard_basis_complete", "expected": True,
                       "got": basis.complete})
        a_shift = family[0].cochain
        lift = verify_lift(system, a_shift, 4)
        checks.append({"name": "unit_shift_lifts", "expected": True,
                       "got": lift.passes})
        dalg = deformed_algebra(system, a_shift)
        checks.append({"name": "unit_shift_radical", "expected": 0,
                       "got": semisimplicity(dalg).radical_dim})
    for c in checks:
        c["ok"] = c["expected"] == c["got"]
    return {"fixture": name, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def cmd_selftest(args):
    names = ["EX1", "DBL", "LOC_1", "LOC_2", "LOC_3", "LOC_4", "LOC_5",
             "ANNULUS", "TORUS", "ANN2"]
    fixtures = [_selftest_fixture(n) for n in names]
    ok = all(f["ok"] for f in fixtures)
    emit({"fixtures": fixtures, "ok": ok}, args)
    return 0 if ok else 1


# -- entry point --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    """The argument parser, built once at import: parsing does not change
    it, and every ``main`` call reuses it."""
    parser = _Parser(prog="bga", add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="bundled fixture name or graph JSON file")
    parser.add_argument("--bipartition", help='override, "v1,v2|w"')
    parser.add_argument("--rules", help="reduction-system JSON file")
    parser.add_argument("--deform-type",
                        choices=["A", "B", "C", "D1", "D2", "custom"])
    parser.add_argument("--cochain", help="cochain JSON file for custom deforms")
    parser.add_argument("--t", default="formal:4",
                        help='"1" or "formal:D" (default formal:4)')
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--check-semisimple", action="store_true")
    parser.add_argument("--pretty", action="store_true")
    return parser


_PARSER = _build_parser()

_DISPATCH = {
    "validate": cmd_validate,
    "info": cmd_info,
    "basis": cmd_basis,
    "diamond": cmd_diamond,
    "hh2": cmd_hh2,
    "cocycles": cmd_cocycles,
    "deform": cmd_deform,
    "selftest": cmd_selftest,
}


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        args.fixture = None
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        emit_error("usage", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        emit_error("json", str(exc))
        return 2
    except _USAGE_ERRORS as exc:
        emit_error(_error_code(exc), str(exc))
        return 2
    except BgaError as exc:
        emit_error(_error_code(exc), str(exc))
        return 1


def emit_error(code, detail):
    sys.stdout.write(json.dumps({"error": code, "detail": detail},
                                sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
