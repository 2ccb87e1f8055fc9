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
from .errors import (BgaError, InputError, JsonError, NonBipartite,
                     NotApplicable, UsageError)
from .fixtures import fixture_doc, fixture_rules
from .hochschild import (_standard_members, cochain_from_values_doc, hh2,
                         standard_cocycles, verify_basis)
from .presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
    two_cycle_set,
)
from .rewrite import FiniteDimAlgebra, check_diamond, irreducible_words
from .ribbon import Bipartition, bipartition, boundary_walks, parse_ribbon_graph

def _error_code(exc):
    name = type(exc).__name__
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
    return snake[:-6] if snake.endswith("_error") else snake


def emit(doc, args):
    # a report is a fresh tree of dicts and lists: no cycle to check for
    if args.pretty:
        text = json.dumps(doc, indent=2, sort_keys=True,
                          check_circular=False) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          check_circular=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read(path):
    """Text of a document file; a file that cannot be read as UTF-8 is a
    usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _json(text):
    """The JSON document of a rules or cochain text; JsonError also for an
    integer literal too long to convert (a plain ValueError) and for
    arrays or objects nested too deep for the decoder (RecursionError)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise JsonError(str(exc)) from exc


def _load_graph(args):
    """(graph, bundled rules text or None): --input names a fixture or a
    graph file, and only a fixture may bundle rules."""
    if args.input is None:
        raise UsageError("--input is required for this command")
    text = fixture_doc(args.input)
    if text is None:
        return parse_ribbon_graph(_read(args.input)), None
    return parse_ribbon_graph(text), fixture_rules(args.input)


def _parse_bipartition(args):
    """The --bipartition override, or None."""
    if not args.bipartition:
        return None
    halves = args.bipartition.split("|")
    if len(halves) != 2:
        raise UsageError('bipartition must look like "v1,v2|w"')
    parts = [{v.strip() for v in h.split(",") if v.strip()} for h in halves]
    if not parts[0] or not parts[1]:
        raise UsageError("both sides of the bipartition must be non-empty")
    return Bipartition(parts[0], parts[1])


def _load(args):
    """(graph, reduction system) for a run.  The system comes from --rules,
    else the fixture's bundled rules, else a fresh build, for the
    --bipartition override when one is given."""
    g, rules_text = _load_graph(args)
    if args.rules:
        rules_text = _read(args.rules)
    return g, _system(g, rules_text, _parse_bipartition(args))


def _system(g, rules_text, bp):
    """The rule document's system on the quiver of g for bp, else the one
    derived from g; a bp that does not 2-color g raises InvalidBipartition."""
    if rules_text is not None:
        return rules_from_doc(quiver_from_graph(g, bp), _json(rules_text))
    return reduction_system(g, bp)


def _graph_doc(g):
    walks = boundary_walks(g)
    try:
        bipartition(g)
        bipartite = True
    except NonBipartite:
        bipartite = False
    return {
        "vertices": len(g.vertices()),
        "edges": len(g.edges),
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
    g, _ = _load_graph(args)
    doc = _graph_doc(g)
    doc["ok"] = True
    emit(doc, args)
    return 0


def cmd_info(args):
    g, system = _load(args)
    dim = len(irreducible_words(system))
    doc = _graph_doc(g)
    doc.update({
        "dim": dim,
        "formula": g.dimension_sum(),
        "match": dim == g.dimension_sum(),
        "betti": len(g.edges) - len(g.vertices()) + 1,
        "rules": len(system.rules),
        "two_cycles": len(two_cycle_set(system)),
    })
    emit(doc, args)
    return 0 if doc["match"] else 1


def cmd_basis(args):
    _, system = _load(args)
    alg = FiniteDimAlgebra(system)
    products = [[i, j, [[k, str(row[k])] for k in sorted(row)]]
                for (i, j), row in alg.table.items()]
    emit({
        "dim": alg.dim,
        "vertices": list(alg.quiver.vertices),
        "arrows": {a: list(alg.quiver.arrows[a]) for a in sorted(alg.quiver.arrows)},
        "basis": _basis_doc(alg),
        "products": products,
    }, args)
    return 0


def cmd_diamond(args):
    _, system = _load(args)
    report = check_diamond(system)
    emit(report.to_doc(), args)
    return 0 if report.confluent else 1


def cmd_hh2(args):
    g, system = _load(args)
    report = hh2(FiniteDimAlgebra(system), graph=g)
    emit(report.to_doc(), args)
    return 0


def cmd_cocycles(args):
    g, system = _load(args)
    family = standard_cocycles(g, system)
    report = verify_basis(hh2(FiniteDimAlgebra(system)),
                          [s.cochain for s in family])
    emit({"cocycles": [s.to_doc(system) for s in family],
          "verification": report.to_doc()}, args)
    return 0 if report.complete else 1


def _select_cochain(args, g, system):
    if args.deform_type == "custom":
        if not args.cochain:
            raise UsageError("--deform-type custom needs --cochain FILE")
        doc = _json(_read(args.cochain))
        return cochain_from_values_doc(system, doc), "custom"
    for s in _standard_members(g, system):
        if s.kind == args.deform_type:
            return s.cochain, s.label
    raise NotApplicable(
        f"graph has no type-({args.deform_type}) cocycle")


def cmd_deform(args):
    g, system = _load(args)
    if not args.deform_type:
        raise UsageError("deform needs --deform-type")
    m = re.fullmatch(r"formal:([0-9]+)", args.t)
    try:
        degree = int(m.group(1)) if m else None
    except ValueError:      # more digits than int() converts
        m = None
    if m is None and args.t != "1":
        raise UsageError('--t must be "1" or "formal:D"')
    if degree is not None and degree < 1:
        raise UsageError("truncation degree must be >= 1")
    cochain, label = _select_cochain(args, g, system)
    if degree is not None:
        check = verify_lift(system, cochain, degree)
        emit({"type": args.deform_type, "label": label, "t": args.t,
              **check.to_doc()}, args)
        return 0 if check.passes else 1
    alg = deformed_algebra(system, cochain)
    doc = {"type": args.deform_type, "label": label, "t": "1",
           "dimension": alg.dim, "basis": _basis_doc(alg)}
    if args.check_semisimple:
        doc.update(semisimplicity(alg).to_doc())
    emit(doc, args)
    return 0


# -- selftest ---------------------------------------------------------------------

# the fixtures selftest checks, in the order it prints them, each with the
# HH^2 dimension it must reproduce
_SELFTEST_HH2 = {
    "EX1": 2, "DBL": 6, "LOC_1": 1, "LOC_2": 2, "LOC_3": 3, "LOC_4": 4,
    "LOC_5": 5, "ANNULUS": 5, "TORUS": 2, "ANN2": 4,
}


def _selftest_fixture(name):
    g = parse_ribbon_graph(fixture_doc(name))
    rules_text = fixture_rules(name)
    system = _system(g, rules_text, None)
    alg = FiniteDimAlgebra(system)
    checks = [
        {"name": "dimension", "expected": g.dimension_sum(), "got": alg.dim},
        {"name": "confluent", "expected": True,
         "got": bool(check_diamond(system))},
    ]
    report = hh2(alg, graph=g)
    checks.append({"name": "hh2_dim", "expected": _SELFTEST_HH2[name],
                   "got": report.hh2_dim})
    if report.formula is not None:
        checks.append({"name": "formula_matches", "expected": True,
                       "got": report.formula_matches})
    if rules_text is None and len(g.edges) > 1:
        family = standard_cocycles(g, system)
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
    fixtures = [_selftest_fixture(n) for n in _SELFTEST_HH2]
    ok = all(f["ok"] for f in fixtures)
    emit({"fixtures": fixtures, "ok": ok}, args)
    return 0 if ok else 1


# -- entry point --------------------------------------------------------------------

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    """The argument parser, built once at import: parsing does not change
    it, and every ``main`` call reuses it."""
    parser = _Parser(prog="bga", add_help=True)
    parser.add_argument("command", choices=_DISPATCH)
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


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        return _DISPATCH[args.command](args)
    except BgaError as exc:
        emit_error(_error_code(exc), str(exc))
        return 2 if isinstance(exc, InputError) else 1


def emit_error(code, detail):
    sys.stdout.write(json.dumps({"error": code, "detail": detail},
                                sort_keys=True, separators=(",", ":"),
                                check_circular=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())
