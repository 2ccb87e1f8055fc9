import json

import pytest

from bga.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_doc(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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
], ids=["unknown_arrow", "top_level_list", "non_numeric_coeff"])
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
