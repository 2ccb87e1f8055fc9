import contextlib
import copy
import gc
import hashlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st
from loaders import generated_family

from bga import hochschild
from bga.cli import main
from bga.fixtures import fixture_doc, fixture_rules

HUGE_INTEGER = "1" + "0" * 5000     # past the 4300-digit conversion limit


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_doc(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_pretty_flag_does_not_stick_to_the_next_call(capsys):
    # main reuses one parser, so each call must start from the defaults
    argv = ["validate", "--input", "DBL"]
    pretty = run(capsys, *argv, "--pretty")
    compact = run(capsys, *argv)
    doc = json.loads(compact[1])
    assert pretty == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert compact == (0, json.dumps(doc, sort_keys=True,
                                     separators=(",", ":")) + "\n")
    assert pretty[1] != compact[1]


def test_validate(capsys):
    code, doc = run_doc(capsys, "validate", "--input", "DBL")
    assert code == 0
    assert doc["ok"] and doc["bipartite"]
    assert (doc["vertices"], doc["edges"], doc["bigon_faces"]) == (2, 2, 2)


def test_info_matches_dimension_formula(capsys):
    code, doc = run_doc(capsys, "info", "--input", "EX1")
    assert code == 0
    assert (doc["dim"], doc["formula"], doc["match"]) == (7, 7, True)
    assert doc["betti"] == 0


def test_bipartition_flag_changes_presentation(capsys):
    code, doc = run_doc(capsys, "info", "--input", "EX1",
                        "--bipartition", "w|v1,v2")
    assert code == 0
    assert doc["rules"] == 8  # the swap keeps both loop arrows
    assert (doc["dim"], doc["match"]) == (7, True)


def test_basis_export(capsys):
    code, doc = run_doc(capsys, "basis", "--input", "LOC_2")
    assert code == 0
    assert doc["dim"] == 3
    assert doc["basis"][0] == {"vertex": "x|y", "word": []}
    products = {(i, j): dict(terms) for i, j, terms in
                ((p[0], p[1], {k: c for k, c in p[2]}) for p in doc["products"])}
    assert products[(1, 1)] == {2: "1"}  # x*x lands on the third basis word


def test_diamond_bundled_systems(capsys):
    for name in ("ANNULUS", "TORUS", "ANN2"):
        code, doc = run_doc(capsys, "diamond", "--input", name)
        assert code == 0
        assert doc["confluent"] and doc["ambiguities"] > 0


def test_diamond_failure_exit_and_witness(tmp_path, capsys):
    rules = tmp_path / "broken.json"
    rules.write_text(json.dumps({"rules": [
        {"tip": ["x", "y"], "rhs": [["1", []]]},
        {"tip": ["y", "x"], "rhs": []},
    ]}))
    code, doc = run_doc(capsys, "diamond", "--input", "ANNULUS",
                        "--rules", str(rules))
    assert code == 1
    assert not doc["confluent"]
    assert doc["failures"][0]["word"] == ["x", "y", "x"]


def test_hh2_annulus(capsys):
    code, doc = run_doc(capsys, "hh2", "--input", "ANNULUS")
    assert code == 0
    assert doc["hh2_dim"] == 5
    assert doc["coboundary_dim"] == 4
    assert len(doc["basis"]) == 5


def test_hh2_byte_identical(capsys):
    _, first = run(capsys, "hh2", "--input", "DBL")
    _, second = run(capsys, "hh2", "--input", "DBL")
    assert first == second
    assert json.loads(first)["hh2_dim"] == 6


def test_cocycles_verified(capsys):
    code, doc = run_doc(capsys, "cocycles", "--input", "DBL")
    assert code == 0
    assert doc["verification"]["complete"]
    assert [c["label"] for c in doc["cocycles"]] == [
        "A", "C(v2|w2)", "D1(w1,w2)", "D2(w1,w2)", "D1(w2,w1)", "D2(w2,w1)"]


def test_deform_formal_pass(capsys):
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--deform-type", "B", "--t", "formal:4")
    assert code == 0
    assert doc["passes"] and doc["witness"] is None
    assert doc["label"] == "B(v2,1)"


def test_deform_semisimple(capsys):
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--deform-type", "A", "--t", "1",
                        "--check-semisimple")
    assert code == 0
    assert (doc["radical_dim"], doc["dimension"]) == (0, 7)
    assert doc["semisimple"]


def test_deform_custom_obstruction(tmp_path, capsys):
    code, pair = run_doc(capsys, "cocycles", "--input", "DBL")
    assert code == 0
    values = {}
    for c in pair["cocycles"]:
        if c["label"] in ("D1(w1,w2)", "D2(w1,w2)"):
            for v in c["values"]:
                tip = tuple(v["tip"])
                values.setdefault(tip, []).extend(v["element"])
    doc = {"values": [{"tip": list(t), "element": el}
                      for t, el in sorted(values.items())]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out = run_doc(capsys, "deform", "--input", "DBL",
                        "--deform-type", "custom", "--cochain", str(path),
                        "--t", "formal:4")
    assert code == 1
    assert not out["passes"]
    assert out["witness"]["order"] == 2


def test_deform_missing_type_is_usage_error(capsys):
    code, doc = run_doc(capsys, "deform", "--input", "EX1")
    assert code == 2
    assert doc["error"] == "usage"


def test_deform_bad_t_is_usage_error_before_the_cochain(capsys):
    # EX1 has no type-(D1) cocycle and LOC_2 no standard family at all: an
    # unusable --t must still be reported as such, not as not_applicable
    for argv in (("EX1", "D1", "2"), ("EX1", "D1", "formal:0"),
                 ("LOC_2", "A", "7")):
        code, doc = run_doc(capsys, "deform", "--input", argv[0],
                            "--deform-type", argv[1], "--t", argv[2])
        assert (code, doc["error"]) == (2, "usage"), argv


def test_deform_degree_takes_ascii_digits_only(capsys):
    # int() reads any Unicode digit, so the pattern must not let one in:
    # Arabic-Indic, fullwidth and superscript threes are not a degree; nor
    # is a number with more digits than int() converts
    for t in ("formal:٣", "formal:３", "formal:³",
              "formal:1٣", f"formal:{HUGE_INTEGER}"):
        code, doc = run_doc(capsys, "deform", "--input", "EX1",
                            "--deform-type", "A", "--t", t)
        assert (code, doc) == (2, {
            "error": "usage",
            "detail": '--t must be "1" or "formal:D"'}), t
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--deform-type", "A", "--t", "formal:3")
    assert (code, doc["t"], doc["passes"]) == (0, "formal:3", True)


def test_unavailable_standard_type(capsys):
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--deform-type", "C")
    assert code == 1
    assert doc["error"] == "not_applicable"


# sha256 of the stdout of ``deform --deform-type A``, exit code 0, as it
# was when the command built the whole standard family to pick one member
DEFORM_A_DIGESTS = {
    ("EX1", "1"):
        "3e01eedc95997c1be2d7732a043496f1f0c62047d8312f1c5f51e87c1307f77e",
    ("EX1", "formal:4"):
        "7179269b0ed6e31c8a28c3b6684f404e1d54771f494142b2e5f90b25a65fad73",
    ("DBL", "1"):
        "6fdabb8448bfa61f901292eee89c281aae780a21ac286f5c0ab64c2b45848453",
    ("DBL", "formal:4"):
        "e42421c8e0ad3033f7f8cef1bc9a719c893cf463ca3118bb87af1d0f0f2221e6",
    ("cycle4o1", "1"):
        "9066f5075ea4f29437923d5b73aa96d83d3cb0bac3f8150435b7e81164d62769",
    ("cycle4o1", "formal:4"):
        "f7d373b2ce9b07ac564a5431b1e675cafec635fa3b9bdaf5ee21468fd094cf6f",
}


def test_deform_builds_only_the_member_it_selects(tmp_path, capsys,
                                                  monkeypatch):
    # the (C) and (D) members are the only readers of these two
    def unreachable(graph):
        raise AssertionError("deform --deform-type A built a C or D member")

    monkeypatch.setattr(hochschild, "spanning_tree", unreachable)
    monkeypatch.setattr(hochschild, "boundary_walks", unreachable)
    path = tmp_path / "cycle4o1.json"
    path.write_text(dict(generated_family())["cycle4o1"])
    inputs = {"EX1": "EX1", "DBL": "DBL", "cycle4o1": str(path)}
    for (label, t), digest in DEFORM_A_DIGESTS.items():
        extra = ("--check-semisimple",) if t == "1" else ()
        code, out = run(capsys, "deform", "--input", inputs[label],
                        "--deform-type", "A", "--t", t, *extra)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) \
            == (0, digest), (label, t)


def test_missing_input_file(capsys):
    code, doc = run_doc(capsys, "hh2", "--input", "/does/not/exist.json")
    assert code == 2
    assert doc["error"] == "usage"


@pytest.mark.parametrize("kind", ["non_utf8", "missing", "directory"])
@pytest.mark.parametrize("argv", [
    ("validate", "--input", None),
    ("info", "--input", "EX1", "--rules", None),
    ("deform", "--input", "EX1", "--deform-type", "custom", "--cochain", None),
], ids=["input", "rules", "cochain"])
def test_an_unreadable_file_is_a_usage_error(tmp_path, capsys, argv, kind):
    path = tmp_path / "doc.json"
    if kind == "non_utf8":
        path.write_bytes(b"\xff\xfe{}")
    elif kind == "directory":
        path.mkdir()
    code, out = run(capsys, *[str(path) if a is None else a for a in argv])
    assert code == 2 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == "usage"
    assert doc["detail"].startswith(f"cannot read {path}: ")


@pytest.mark.parametrize("name, out", [
    ("LOC_0", '{"detail":"LOC multiplicity must be >= 1","error":"schema"}\n'),
    ("LOC_x", '{"detail":"bad LOC parameter in \'LOC_x\'","error":"schema"}\n'),
], ids=["LOC_0", "LOC_x"])
def test_a_bad_loc_name_keeps_its_own_message(capsys, name, out):
    # a LOC_ name is a fixture name, so it is never read as a file path
    assert run(capsys, "validate", "--input", name) == (2, out)


@pytest.mark.parametrize("name", [
    "LOC_ 3", "LOC_3 ", "LOC_+3", "LOC_-1", "LOC_\u0663", "LOC_\uff13",
    "LOC_\u00b3", "LOC_1_0", "LOC_3\n", "LOC_" + HUGE_INTEGER,
], ids=["space", "trailing-space", "plus", "minus", "arabic-indic",
        "fullwidth", "superscript", "underscore", "newline", "huge"])
def test_a_loc_parameter_takes_ascii_digits_only(capsys, name):
    # int() would read each of these as a number (LOC_3, LOC_-1 or LOC_10)
    # or, past its digit limit, raise ValueError
    detail = json.dumps(f"bad LOC parameter in {name!r}")
    assert run(capsys, "validate", "--input", name) == (
        2, f'{{"detail":{detail},"error":"schema"}}\n')


@pytest.mark.parametrize("command", ["validate", "hh2"])
def test_a_half_edge_id_with_a_bar_is_a_schema_error(tmp_path, capsys,
                                                      command):
    # edge ids join the two half-edge ids with "|", so one id holding a "|"
    # could not be split back
    path = tmp_path / "bar.json"
    path.write_text(fixture_doc("DBL").replace('"v1"', '"v|1"'))
    assert run(capsys, command, "--input", str(path)) == (
        2, '{"detail":"half-edge id \'v|1\' contains \'|\'","error":"schema"}\n')


# one edge u -- v; a string of half-edge ids would be read letter by
# letter, and an object by its keys
ONE_EDGE = {"vertices": [{"id": "u", "multiplicity": 1},
                         {"id": "v", "multiplicity": 2}],
            "incidence": {"a": "u", "b": "v"}, "pairing": [["a", "b"]],
            "rotation": {"u": ["a"], "v": ["b"]}}


@pytest.mark.parametrize("halves", ["ab", {"a": 1, "b": 2}],
                         ids=["string", "object"])
def test_half_edges_that_are_not_a_list_are_a_schema_error(tmp_path, capsys,
                                                           halves):
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(dict(ONE_EDGE, half_edges=halves)))
    assert run(capsys, "validate", "--input", str(path)) == (
        2, '{"detail":"half_edges must be a JSON list","error":"schema"}\n')
    path.write_text(json.dumps(dict(ONE_EDGE, half_edges=["a", "b"])))
    assert run(capsys, "validate", "--input", str(path))[0] == 0


# one vertex and no edge: the quiver would have no vertex at all
EDGELESS = {"vertices": [{"id": "v", "multiplicity": 2}], "half_edges": [],
            "incidence": {}, "pairing": [], "rotation": {"v": []}}


@pytest.mark.parametrize("command", ["validate", "hh2", "cocycles"])
def test_a_graph_with_no_edges_is_a_schema_error(tmp_path, capsys, command):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps(EDGELESS))
    assert run(capsys, command, "--input", str(path)) == (
        2, '{"detail":"graph has no edges","error":"schema"}\n')


def test_malformed_graph_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": []")
    code, doc = run_doc(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert doc["error"] == "schema"


@pytest.mark.parametrize("argv, out", [
    (("hh2",),
     '{"detail":"--input is required for this command","error":"usage"}\n'),
    (("deform", "--input", "EX1", "--deform-type", "custom"),
     '{"detail":"--deform-type custom needs --cochain FILE","error":"usage"}\n'),
], ids=["no_input", "custom_without_cochain"])
def test_missing_arguments_are_usage_errors(capsys, argv, out):
    assert run(capsys, *argv) == (2, out)


@pytest.mark.parametrize("argv", [
    ("frobnicate", "--input", "EX1"),
    ("deform", "--input", "EX1", "--deform-type", "E"),
], ids=["unknown_command", "bad_deform_type"])
def test_argument_errors_are_one_json_line_on_stdout(capsys, argv):
    # argparse's own wording differs between Python versions, so only the
    # code is pinned
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out.count("\n")) == (2, "", 1)
    assert json.loads(captured.out)["error"] == "usage"


@pytest.mark.parametrize("doc, out", [
    ({"vertices": [], "half_edges": [], "incidence": {}, "pairing": [],
      "rotation": {}},
     '{"detail":"graph has no vertices","error":"schema"}\n'),
    (dict(ONE_EDGE, half_edges=["a", "a"]),
     '{"detail":"duplicate half-edge id","error":"schema"}\n'),
], ids=["empty", "duplicate_half_edge"])
def test_empty_and_duplicate_graph_documents_are_schema_errors(
        tmp_path, capsys, doc, out):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", "--input", str(path)) == (2, out)


def test_invalid_bipartition(capsys):
    code, doc = run_doc(capsys, "hh2", "--input", "EX1",
                        "--bipartition", "v1|w")
    assert code == 2
    assert doc["error"] == "invalid_bipartition"


def test_graph_file_errors_keep_their_order(tmp_path, capsys):
    # no bundled rules for a graph file: the system is derived, so a bad
    # --bipartition is reported before the graph's own bipartiteness
    path = tmp_path / "annulus.json"
    path.write_text(fixture_doc("ANNULUS"))
    code, doc = run_doc(capsys, "hh2", "--input", str(path))
    assert (code, doc["error"]) == (2, "not_bipartite")
    code, doc = run_doc(capsys, "deform", "--input", str(path),
                        "--bipartition", "x|y", "--deform-type", "A")
    assert (code, doc["error"]) == (2, "invalid_bipartition")


INVALID_BIPARTITION = ('{"detail":"not a proper 2-coloring of the graph",'
                       '"error":"invalid_bipartition"}\n')


@pytest.mark.parametrize("argv", [
    ("hh2", "--input", "ANN2", "--bipartition", "q|p"),
    ("diamond", "--input", "ANN2", "--bipartition", "q|p"),
    ("cocycles", "--input", "TORUS", "--bipartition", "p|p"),
    ("hh2", "--input", "EX1", "--bipartition", "v1|w", "--rules", None),
], ids=["bundled_rules_hh2", "bundled_rules_diamond", "bundled_rules_family",
        "rules_file"])
def test_bipartition_override_is_checked_for_rule_documents(tmp_path, capsys,
                                                             argv):
    # ANN2 and TORUS have loops, so no bipartition fits them; the override
    # is checked as for a fresh build, before the rules are read
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [{"tip": ["b", "b"], "rhs": []}]}))
    argv = [str(rules) if a is None else a for a in argv]
    assert run(capsys, *argv) == (2, INVALID_BIPARTITION)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "info", "--input", "LOC_3",
                    "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["dim"] == 4


def test_pretty_output(capsys):
    code, out = run(capsys, "validate", "--input", "EX1", "--pretty")
    assert code == 0
    assert out.count("\n") > 3
    assert json.loads(out)["ok"]


EMIT_RUNS = (
    ("validate", "--input", "DBL"),
    ("info", "--input", "DBL"),
    ("basis", "--input", "DBL"),
    ("diamond", "--input", "DBL"),
    ("hh2", "--input", "DBL"),
    ("cocycles", "--input", "DBL"),
    ("deform", "--input", "DBL", "--deform-type", "D1", "--t", "formal:4"),
    ("deform", "--input", "DBL", "--deform-type", "A", "--t", "1",
     "--check-semisimple"),
    ("selftest",),
)


@pytest.mark.parametrize("argv", EMIT_RUNS, ids=lambda argv: argv[0])
def test_emit_writes_the_bytes_of_json_dumps_defaults(capsys, argv):
    # emit turns the encoder's cycle check off; the bytes must not change
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0
    assert out == json.dumps(doc, sort_keys=True,
                             separators=(",", ":")) + "\n"
    code, out = run(capsys, *argv, "--pretty")
    assert code == 0
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_emit_error_writes_the_bytes_of_json_dumps_defaults(capsys):
    code, out = run(capsys, "hh2", "--input", "LOC_0")
    doc = json.loads(out)
    assert code == 2 and set(doc) == {"error", "detail"}
    assert out == json.dumps(doc, sort_keys=True,
                             separators=(",", ":")) + "\n"


def test_selftest_green(capsys):
    code, doc = run_doc(capsys, "selftest")
    assert code == 0
    assert doc["ok"]
    assert [f["fixture"] for f in doc["fixtures"]] == [
        "EX1", "DBL", "LOC_1", "LOC_2", "LOC_3", "LOC_4", "LOC_5",
        "ANNULUS", "TORUS", "ANN2"]
    for f in doc["fixtures"]:
        assert f["ok"], f["fixture"]


def positions(doc, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from positions(value, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    at = doc
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return doc


NAMES = st.sampled_from(["a", "d", "g", "b", "v1", "v2", "w", "p", "q", "x"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | NAMES
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_graph_document_with_one_value_replaced_gets_a_json_report(
        tmp_path_factory, data):
    # whatever the document holds, the CLI answers with one JSON object and
    # a documented exit code, never a traceback
    doc = json.loads(fixture_doc(data.draw(
        st.sampled_from(["EX1", "DBL", "ANN2"]))))
    path = data.draw(st.sampled_from(list(positions(doc))))
    target = tmp_path_factory.getbasetemp() / "mutated_graph.json"
    target.write_text(json.dumps(replaced(doc, path, data.draw(JSON_VALUES))))
    for command in ("validate", "info"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--input", str(target)])
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert out.getvalue().count("\n") == 1


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, error", [
    (("validate", "--input", None), "schema"),
    (("info", "--input", "EX1", "--rules", None), "json"),
    (("deform", "--input", "EX1", "--deform-type", "custom",
      "--cochain", None), "json"),
], ids=["graph", "rules", "cochain"])
def test_json_nested_too_deep_is_an_input_error(tmp_path, capsys, argv,
                                                error):
    # the decoder raises RecursionError, not a ValueError, on deep nesting
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    start = time.perf_counter()
    code, out = run(capsys, *[str(path) if a is None else a for a in argv])
    assert time.perf_counter() - start < 1.0
    doc = json.loads(out)
    assert (code, doc["error"], out.count("\n")) == (2, error, 1)
    assert "maximum recursion depth exceeded" in doc["detail"]
    if error == "schema":
        assert doc["detail"].startswith("not valid JSON: ")


@pytest.mark.parametrize("rules", [
    {"rules": [{"tip": ["x"]}]},                        # unknown arrow
    [{"tip": ["b", "b"], "rhs": []}],                   # top-level list
    {"rules": [{"tip": ["b", "b"], "rhs": [["one", []]]}]},
    {"rules": [{"tip": ["b", "b"], "rhs": [[0.1, []]]}]},
    {"rules": [{"tip": ["b", "b"], "rhs": [[True, []]]}]},
], ids=["unknown_arrow", "top_level_list", "non_numeric_coeff",
        "float_coeff", "bool_coeff"])
def test_malformed_rules_document(tmp_path, capsys, rules):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    code, doc = run_doc(capsys, "info", "--input", "EX1",
                        "--rules", str(path))
    assert code == 2
    assert doc["error"] == "schema"


def test_cochain_document_without_values(tmp_path, capsys):
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps({"cocycles": []}))
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--deform-type", "custom", "--cochain", str(path))
    assert code == 2
    assert doc["error"] == "schema"


def _annulus_rules_with(edit):
    rules = json.loads(fixture_rules("ANNULUS"))
    edit(rules["rules"][0])
    return rules


# a word in a document is a JSON list of arrow names: a string would be
# read letter by letter
@pytest.mark.parametrize("argv, doc, word", [
    (("deform", "--input", "EX1", "--deform-type", "custom", "--t",
      "formal:2", "--cochain"),
     {"values": [{"tip": "bb", "element": [
         {"vertex": "b|g", "word": [], "coeff": "5"}]}]}, "bb"),
    (("deform", "--input", "EX1", "--deform-type", "custom", "--t",
      "formal:2", "--cochain"),
     {"values": [{"tip": ["b", "b"], "element": [
         {"vertex": "b|g", "word": "b", "coeff": "1"}]}]}, "b"),
    (("diamond", "--input", "ANNULUS", "--rules"),
     _annulus_rules_with(lambda rule: rule.update(tip="xy")), "xy"),
    (("diamond", "--input", "ANNULUS", "--rules"),
     _annulus_rules_with(lambda rule: rule.update(rhs=[["1", "yx"]])), "yx"),
], ids=["cochain_tip", "element_word", "rule_tip", "rule_rhs_word"])
def test_a_word_that_is_not_a_list_is_a_schema_error(tmp_path, capsys, argv,
                                                     doc, word):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, *argv, str(path)) == (
        2, '{"detail":"word \'%s\' is not a JSON list","error":"schema"}\n'
        % word)


def test_cochain_document_naming_a_tip_twice_is_a_schema_error(tmp_path,
                                                               capsys):
    # two values on EX1's tip b*b would otherwise leave only the last one
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps({"values": [
        {"tip": ["b", "b"],
         "element": [{"vertex": "b|g", "word": [], "coeff": c}]}
        for c in ("1", "5")]}))
    for t in ("1", "formal:2"):
        assert run(capsys, "deform", "--input", "EX1", "--deform-type",
                   "custom", "--cochain", str(path), "--t", t) == (
            2, '{"detail":"duplicate tip b*b","error":"schema"}\n')


def test_out_flag_to_missing_directory(tmp_path, capsys):
    code, doc = run_doc(capsys, "validate", "--input", "EX1",
                        "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert doc["error"] == "usage"


def _cochain_file(tmp_path, tip, element):
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps({"values": [{"tip": tip, "element": element}]}))
    return str(path)


def test_cochain_with_unknown_vertex_is_schema_error(tmp_path, capsys):
    path = _cochain_file(tmp_path, ["a", "a"],
                         [{"vertex": "nowhere", "word": [], "coeff": "1"}])
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--bipartition", "w|v1,v2", "--deform-type", "custom",
                        "--cochain", path)
    assert code == 2
    assert doc == {"error": "schema", "detail": "unknown vertex 'nowhere'"}


@pytest.mark.parametrize("coeff", ["one", 0.1, True], ids=[
    "non_numeric_coeff", "float_coeff", "bool_coeff"])
def test_malformed_cochain_coefficient(tmp_path, capsys, coeff):
    path = _cochain_file(tmp_path, ["a", "a"],
                         [{"vertex": "a|d", "word": [], "coeff": coeff}])
    for t in ("1", "formal:4"):
        code, doc = run_doc(capsys, "deform", "--input", "EX1",
                            "--bipartition", "w|v1,v2", "--deform-type",
                            "custom", "--cochain", path, "--t", t)
        assert code == 2
        assert doc["error"] == "schema"


# a coefficient string is an ASCII integer or fraction, as element_to_doc
# writes it; an exponent would make a number too long to compute with or
# print, and the rest are spellings Fraction would also have taken
@pytest.mark.parametrize("coeff", [
    "1e100000000", "1e10000000", "1e5000", "٣", "1_000", " 2 ", "2.5"])
def test_a_coefficient_takes_only_the_spelling_documents_write(tmp_path,
                                                               capsys, coeff):
    refusal = repr(ValueError(f"Invalid literal for Fraction: {coeff!r}"))
    path = _cochain_file(tmp_path, ["b", "b"],
                         [{"vertex": "b|g", "word": [], "coeff": coeff}])
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(
        {"rules": [{"tip": ["b", "b"], "rhs": [[coeff, []]]}]}))
    for argv, detail in (
            (("deform", "--input", "EX1", "--deform-type", "custom",
              "--cochain", path, "--t", "formal:2"),
             f"malformed element: {refusal}"),
            (("deform", "--input", "EX1", "--deform-type", "custom",
              "--cochain", path, "--t", "1"),
             f"malformed element: {refusal}"),
            (("info", "--input", "EX1", "--rules", str(rules)),
             f"malformed rules document: {refusal}")):
        start = time.perf_counter()
        assert run(capsys, *argv) == (2, json.dumps(
            {"detail": detail, "error": "schema"}, sort_keys=True,
            separators=(",", ":")) + "\n")
        assert time.perf_counter() - start < 1, argv


def test_a_huge_json_integer_is_a_json_error(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(fixture_doc("EX1").replace(
        '"multiplicity": 2', f'"multiplicity": {HUGE_INTEGER}'))
    code, doc = run_doc(capsys, "validate", "--input", str(graph))
    assert code == 2 and doc["error"] == "schema"
    assert doc["detail"].startswith("not valid JSON: Exceeds the limit")
    rules = tmp_path / "rules.json"
    rules.write_text('{"rules": [{"tip": ["b", "b"], "rhs": [[%s, []]]}]}'
                     % HUGE_INTEGER)
    cochain = tmp_path / "cochain.json"
    cochain.write_text('{"values": [{"tip": ["b", "b"], "element": '
                       '[{"vertex": "b|g", "word": [], "coeff": %s}]}]}'
                       % HUGE_INTEGER)
    for argv in (("info", "--input", "EX1", "--rules", str(rules)),
                 ("deform", "--input", "EX1", "--deform-type", "custom",
                  "--cochain", str(cochain), "--t", "1")):
        code, doc = run_doc(capsys, *argv)
        assert code == 2 and doc["error"] == "json", argv
        assert doc["detail"].startswith("Exceeds the limit"), argv


# x*y -> y*x + e(x|y) on the annulus: the non-cocycle {rule 0: e(x|y)}
ANNULUS_NON_ASSOCIATIVE = (
    '{"detail":"triple 1,1,2: [Fraction(0, 1), Fraction(0, 1), '
    'Fraction(0, 1), Fraction(0, 1)] != [Fraction(0, 1), Fraction(2, 1), '
    'Fraction(0, 1), Fraction(0, 1)]","error":"non_associative"}\n')


def test_deform_t1_non_cocycle_names_first_failing_triple(tmp_path, capsys):
    path = _cochain_file(tmp_path, ["x", "y"],
                         [{"vertex": "x|y", "word": [], "coeff": "1"}])
    code, out = run(capsys, "deform", "--input", "ANNULUS",
                    "--deform-type", "custom", "--cochain", path, "--t", "1")
    assert code == 1
    assert out == ANNULUS_NON_ASSOCIATIVE


# the broken annulus rules of test_diamond_failure_exit_and_witness, pinned
# byte for byte so that a change of redex choice in reduce shows up
BROKEN_ANNULUS_DIAMOND = (
    '{"ambiguities":2,"confluent":false,"failures":['
    '{"left":[{"coeff":"1","vertex":"x|y","word":["x"]}],"right":[],'
    '"word":["x","y","x"]},'
    '{"left":[],"right":[{"coeff":"1","vertex":"x|y","word":["y"]}],'
    '"word":["y","x","y"]}]}\n')
BROKEN_ANNULUS_HH2 = (
    '{"detail":"irreducible word longer than cap 6",'
    '"error":"infinite_dimensional"}\n')


def test_non_confluent_rules_output_is_pinned(tmp_path, capsys):
    rules = tmp_path / "broken.json"
    rules.write_text(json.dumps({"rules": [
        {"tip": ["x", "y"], "rhs": [["1", []]]},
        {"tip": ["y", "x"], "rhs": []},
    ]}))
    assert run(capsys, "diamond", "--input", "ANNULUS",
               "--rules", str(rules)) == (1, BROKEN_ANNULUS_DIAMOND)
    assert run(capsys, "hh2", "--input", "ANNULUS",
               "--rules", str(rules)) == (1, BROKEN_ANNULUS_HH2)


# the finite-dimensional, non-confluent annulus rules of
# tests/test_hochschild.py::test_requires_confluence: hh2 and info (for
# its 2-cycles) stop at the diamond check and name the first unresolved
# overlap, and cocycles stops earlier, at the annulus loop
NON_CONFLUENT_ANNULUS = {
    "diamond": (1,
        '{"ambiguities":4,"confluent":false,"failures":['
        '{"left":[{"coeff":"1","vertex":"x|y","word":["y"]}],"right":[],'
        '"word":["x","y","y"]},'
        '{"left":[],"right":[{"coeff":"1","vertex":"x|y","word":["x"]}],'
        '"word":["x","x","y"]}]}\n'),
    "hh2": (1,
        '{"detail":"2 unresolved overlaps, first x*y*y",'
        '"error":"requires_confluent_system"}\n'),
    "info": (1,
        '{"detail":"2 unresolved overlaps, first x*y*y",'
        '"error":"requires_confluent_system"}\n'),
    "cocycles": (2,
        '{"detail":"loop at vertex \'q\'","error":"non_bipartite"}\n'),
}


@pytest.mark.parametrize("command", sorted(NON_CONFLUENT_ANNULUS))
def test_non_confluent_finite_rules_output_is_pinned(tmp_path, capsys,
                                                     command):
    rules = tmp_path / "non_confluent.json"
    rules.write_text(json.dumps({"rules": [
        {"tip": ["x", "y"], "rhs": [["1", []]]},
        {"tip": ["x", "x"], "rhs": []},
        {"tip": ["y", "y"], "rhs": []},
    ]}))
    assert run(capsys, command, "--input", "ANNULUS",
               "--rules", str(rules)) == NON_CONFLUENT_ANNULUS[command]


def _growing_t1_deformation(tmp_path, capsys):
    # a2*bq -> -2 a2*a1*bq at t = 1 lengthens the word at every step, so
    # only the letter budget ends the reduction
    path = _cochain_file(tmp_path, ["a2", "bq"],
                         [{"vertex": "bp|bq", "word": ["a2", "a1", "bq"],
                           "coeff": "-2"}])
    return run(capsys, "deform", "--input", "ANN2",
               "--deform-type", "custom", "--cochain", path, "--t", "1")


def test_step_budget_stops_a_growing_t1_deformation(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 5000)
    assert _growing_t1_deformation(tmp_path, capsys) == (
        1, '{"detail":"no normal form within 5000 letters",'
           '"error":"non_terminating"}\n')


def test_shipped_letter_budget_ends_a_growing_t1_deformation_quickly(
        tmp_path, capsys):
    # each step is charged the length of the word it rewrites, so the
    # budget bounds the quadratic scan work, not only the step count
    start = time.perf_counter()
    code, out = _growing_t1_deformation(tmp_path, capsys)
    assert time.perf_counter() - start < 5
    assert code == 1
    assert json.loads(out)["error"] == "non_terminating"


def _growing_formal_lift(tmp_path, capsys, degree):
    # Psi is not nilpotent: the lift of v*w in the overlap bq|a2*a1*bq|a2
    # carries a word that grows by a letter per order, 11033 letters
    # written by Psi at D = 100 and 1010033 at D = 1000
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps({"values": [
        {"tip": ["a1", "a1"],
         "element": [{"vertex": "a1|a2", "word": ["bq", "a2"],
                      "coeff": "1"}]},
        {"tip": ["a2", "bq"],
         "element": [{"vertex": "bp|bq", "word": ["a2", "a1", "bq"],
                      "coeff": "1"}]}]}))
    return run(capsys, "deform", "--input", "ANN2", "--deform-type",
               "custom", "--cochain", str(path), "--t", f"formal:{degree}")


def test_letter_budget_stops_a_growing_formal_lift(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 5000)
    assert _growing_formal_lift(tmp_path, capsys, 100) == (
        1, '{"detail":"no formal lift within 5000 letters",'
           '"error":"non_terminating"}\n')


def test_shipped_letter_budget_ends_a_growing_formal_lift_quickly(
        tmp_path, capsys):
    code, out = _growing_formal_lift(tmp_path, capsys, 1000)
    assert (code, json.loads(out)["passes"]) == (0, True)
    start = time.perf_counter()
    code, out = _growing_formal_lift(tmp_path, capsys, 100000)
    assert time.perf_counter() - start < 5
    assert (code, json.loads(out)["error"]) == (1, "non_terminating")


# a cochain is validated like the values of deformed rules, at t = 1 and
# at every truncation degree, formal:1 included: a value that is itself
# reducible is unusable input, a non-parallel one a failed check; both
# pinned byte for byte
@pytest.mark.parametrize("argv, tip, element, expected", [
    (("--input", "ANNULUS"), ["x", "y"],
     [{"vertex": "x|y", "word": ["x", "y"], "coeff": "1"}],
     (2, '{"detail":"rhs of x*y is itself reducible","error":"schema"}\n')),
    (("--input", "EX1", "--bipartition", "w|v1,v2"), ["a", "a"],
     [{"vertex": "a|d", "word": ["d"], "coeff": "1"}],
     (1, '{"detail":"value on a*a has non-parallel monomial d",'
         '"error":"non_parallel_cochain"}\n')),
], ids=["reducible_monomial", "non_parallel_monomial"])
def test_deform_t1_rejects_a_bad_custom_cochain(tmp_path, capsys, argv, tip,
                                                element, expected):
    path = _cochain_file(tmp_path, tip, element)
    for t in ("1", "formal:1", "formal:4"):
        assert run(capsys, "deform", *argv, "--deform-type", "custom",
                   "--cochain", path, "--t", t) == expected


# a failed formal lift, pinned byte for byte: the order and the rendered
# difference of the witness, with a bare order-0 term on the broken annulus
# rules and parenthesised coefficients in t elsewhere.  The broken annulus
# rules are x*y -> C e(x|y), y*x -> 0, with the constant C given per case.
DBL_BIGON_PAIR = {"values": [
    {"tip": ["v2", "w1"],
     "element": [{"coeff": "1", "vertex": "v1|w1", "word": []}]},
    {"tip": ["w1", "v2"],
     "element": [{"coeff": "1", "vertex": "v2|w2", "word": []},
                 {"coeff": "1", "vertex": "v2|w2", "word": ["w1", "w2"]}]},
    {"tip": ["w1", "w2", "w1"],
     "element": [{"coeff": "1", "vertex": "v1|w1", "word": ["v1"]}]}]}
EX1_RANDOM = {"values": [
    {"tip": ["b", "b"],
     "element": [{"vertex": "b|g", "word": ["b"], "coeff": "3"},
                 {"vertex": "b|g", "word": ["d", "g"], "coeff": "-1"}]},
    {"tip": ["d", "g", "d"],
     "element": [{"vertex": "a|d", "word": ["d"], "coeff": "-1"}]}]}
BROKEN_ANNULUS_AT_ORDER_0 = (
    '{"ambiguities":2,"label":"custom","passes":false,"t":"formal:3",'
    '"type":"custom","witness":{"detail":"overlap x*y*x fails at order '
    't^0: difference %s","order":0,"word":["x","y","x"]}}\n')
FAILED_LIFTS = [
    (("--input", "DBL"), "1", DBL_BIGON_PAIR, "formal:4",
     '{"ambiguities":16,"label":"custom","passes":false,"t":"formal:4",'
     '"type":"custom","witness":{"detail":"overlap v2*w1*v2 fails at order '
     't^2: difference (-1 t^2) w2","order":2,"word":["v2","w1","v2"]}}\n'),
    (("--input", "ANNULUS", "--rules", None), "1", {"values": []}, "formal:3",
     '{"ambiguities":2,"label":"custom","passes":false,"t":"formal:3",'
     '"type":"custom","witness":{"detail":"overlap x*y*x fails at order '
     't^0: difference x","order":0,"word":["x","y","x"]}}\n'),
    (("--input", "EX1"), "1", EX1_RANDOM, "formal:3",
     '{"ambiguities":8,"label":"custom","passes":false,"t":"formal:3",'
     '"type":"custom","witness":{"detail":"overlap b*b*d fails at order '
     't^1: difference (-1 t + t^2) d","order":1,"word":["b","b","d"]}}\n'),
    (("--input", "ANNULUS", "--rules", None), "-1/2", {"values": []},
     "formal:3", BROKEN_ANNULUS_AT_ORDER_0 % "(-1/2) x"),
    (("--input", "ANNULUS", "--rules", None), "-1", {"values": []},
     "formal:3", BROKEN_ANNULUS_AT_ORDER_0 % "-x"),
    (("--input", "ANNULUS", "--rules", None), "-1/2", {"values": [
        {"tip": ["x", "y"],
         "element": [{"vertex": "x|y", "word": [], "coeff": "3"}]}]},
     "formal:3", BROKEN_ANNULUS_AT_ORDER_0 % "(-1/2 + 3 t) x"),
]


@pytest.mark.parametrize("argv, constant, cochain, t, expected", FAILED_LIFTS,
                         ids=["dbl_bigon_pair", "broken_annulus",
                              "ex1_random", "broken_annulus_half",
                              "broken_annulus_minus_one",
                              "broken_annulus_polynomial"])
def test_failed_formal_lift_output_is_pinned(tmp_path, capsys, argv,
                                             constant, cochain, t, expected):
    rules = tmp_path / "broken.json"
    rules.write_text(json.dumps({"rules": [
        {"tip": ["x", "y"], "rhs": [[constant, []]]},
        {"tip": ["y", "x"], "rhs": []},
    ]}))
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps(cochain))
    argv = [str(rules) if a is None else a for a in argv]
    assert run(capsys, "deform", *argv, "--deform-type", "custom",
               "--cochain", str(path), "--t", t) == (1, expected)


def test_commands_leave_no_reference_cycles(capsys):
    # reference counting alone frees what a command makes, so no command
    # leaves work for the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        for name in ("EX1", "DBL"):
            for argv in (("hh2",), ("cocycles",),
                         ("deform", "--deform-type", "A", "--t", "formal:4"),
                         ("deform", "--deform-type", "A", "--t", "1",
                          "--check-semisimple"),
                         ("basis",)):
                code, _ = run(capsys, *argv, "--input", name)
                assert code == 0, (name, argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
