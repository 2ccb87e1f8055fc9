import json

import pytest

from bga.cli import main
from bga.fixtures import fixture_doc


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


def test_unavailable_standard_type(capsys):
    code, doc = run_doc(capsys, "deform", "--input", "EX1",
                        "--deform-type", "C")
    assert code == 1
    assert doc["error"] == "not_applicable"


def test_missing_input_file(capsys):
    code, doc = run_doc(capsys, "hh2", "--input", "/does/not/exist.json")
    assert code == 2
    assert doc["error"] == "usage"


def test_malformed_graph_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": []")
    code, doc = run_doc(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert doc["error"] == "schema"


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


def test_selftest_green(capsys):
    code, doc = run_doc(capsys, "selftest")
    assert code == 0
    assert doc["ok"]
    assert [f["fixture"] for f in doc["fixtures"]] == [
        "EX1", "DBL", "LOC_1", "LOC_2", "LOC_3", "LOC_4", "LOC_5",
        "ANNULUS", "TORUS", "ANN2"]
    for f in doc["fixtures"]:
        assert f["ok"], f["fixture"]


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


def test_step_budget_stops_a_growing_t1_deformation(tmp_path, capsys,
                                                    monkeypatch):
    # a2*bq -> -2 a2*a1*bq at t = 1 lengthens the word at every step, so
    # only the step budget ends the reduction
    monkeypatch.setattr("bga.rewrite.MAX_REDUCE_STEPS", 500)
    path = _cochain_file(tmp_path, ["a2", "bq"],
                         [{"vertex": "bp|bq", "word": ["a2", "a1", "bq"],
                           "coeff": "-2"}])
    code, out = run(capsys, "deform", "--input", "ANN2",
                    "--deform-type", "custom", "--cochain", path, "--t", "1")
    assert code == 1
    assert out == ('{"detail":"no normal form within 500 steps",'
                   '"error":"non_terminating"}\n')


# at t = 1 the deformed rules are validated like any rule document: a value
# that is itself reducible is unusable input, a non-parallel one a failed
# check; both pinned byte for byte
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
    for t in ("1", "formal:4"):
        assert run(capsys, "deform", *argv, "--deform-type", "custom",
                   "--cochain", path, "--t", t) == expected


# a failed formal lift, pinned byte for byte: the order and the rendered
# difference of the witness, with a bare order-0 term on the broken annulus
# rules and parenthesised coefficients in t elsewhere
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
FAILED_LIFTS = [
    (("--input", "DBL"), DBL_BIGON_PAIR, "formal:4",
     '{"ambiguities":16,"label":"custom","passes":false,"t":"formal:4",'
     '"type":"custom","witness":{"detail":"overlap v2*w1*v2 fails at order '
     't^2: difference (-1 t^2) w2","order":2,"word":["v2","w1","v2"]}}\n'),
    (("--input", "ANNULUS", "--rules", None), {"values": []}, "formal:3",
     '{"ambiguities":2,"label":"custom","passes":false,"t":"formal:3",'
     '"type":"custom","witness":{"detail":"overlap x*y*x fails at order '
     't^0: difference x","order":0,"word":["x","y","x"]}}\n'),
    (("--input", "EX1"), EX1_RANDOM, "formal:3",
     '{"ambiguities":8,"label":"custom","passes":false,"t":"formal:3",'
     '"type":"custom","witness":{"detail":"overlap b*b*d fails at order '
     't^1: difference (-1 t + t^2) d","order":1,"word":["b","b","d"]}}\n'),
]


@pytest.mark.parametrize("argv, cochain, t, expected", FAILED_LIFTS,
                         ids=["dbl_bigon_pair", "broken_annulus",
                              "ex1_random"])
def test_failed_formal_lift_output_is_pinned(tmp_path, capsys, argv, cochain,
                                             t, expected):
    rules = tmp_path / "broken.json"
    rules.write_text(json.dumps({"rules": [
        {"tip": ["x", "y"], "rhs": [["1", []]]},
        {"tip": ["y", "x"], "rhs": []},
    ]}))
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps(cochain))
    argv = [str(rules) if a is None else a for a in argv]
    assert run(capsys, "deform", *argv, "--deform-type", "custom",
               "--cochain", str(path), "--t", t) == (1, expected)
