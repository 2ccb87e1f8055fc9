import pytest
from fractions import Fraction

from bga.errors import InvalidBipartition, NotApplicable, NotBipartite
from bga.fixtures import fixture_doc, fixture_rules, generated_family
from bga.paths import Element
from bga.presentation import (
    build_presentation,
    cycle_word,
    dimension_formula,
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
    two_cycle_set,
)
from bga.rewrite import reduce
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

import json

F = Fraction


def graph(name, **kw):
    return parse_ribbon_graph(fixture_doc(name, **kw))


def rules_dict(system):
    return {r.tip[1]: {k[1]: c for k, c in r.rhs.terms.items()}
            for r in system.rules}


EX1_BP1 = Bipartition({"w"}, {"v1", "v2"})
EX1_BP2 = Bipartition({"v1", "v2"}, {"w"})


def test_cycle_word():
    g = graph("EX1")
    assert cycle_word(g, "d") == ("g", "d")
    assert cycle_word(g, "g") == ("d", "g")
    assert cycle_word(g, "b", 2) == ("b", "b")
    d = graph("DBL")
    assert cycle_word(d, "v1") == ("v2", "v1")
    assert cycle_word(d, "w2") == ("w1", "w2")


def test_quiver_from_graph_keeps_part_two_truncated_loops():
    g = graph("EX1")
    q1 = quiver_from_graph(g, EX1_BP1)
    assert sorted(q1.arrows) == ["a", "b", "d", "g"]
    q2 = quiver_from_graph(g, EX1_BP2)
    assert sorted(q2.arrows) == ["b", "d", "g"]  # loop at truncated v1 dropped
    q0 = quiver_from_graph(g, None)
    assert sorted(q0.arrows) == ["b", "d", "g"]
    assert q1.arrows["d"] == ("a|d", "b|g")
    assert q1.sigma == {"a": "a", "b": "b", "d": "g", "g": "d"}


def test_ex1_system_part_one_w():
    g = graph("EX1")
    sys1 = reduction_system(g, EX1_BP1)
    assert rules_dict(sys1) == {
        ("g", "d"): {("a",): F(1)},
        ("d", "g"): {("b", "b"): F(1)},
        ("a", "a"): {},
        ("b", "b", "b"): {},
        ("a", "g"): {},
        ("b", "d"): {},
        ("d", "a"): {},
        ("g", "b"): {},
    }


def test_ex1_system_part_one_vv():
    g = graph("EX1")
    sys2 = reduction_system(g, EX1_BP2)
    assert rules_dict(sys2) == {
        ("b", "b"): {("d", "g"): F(1)},
        ("d", "g", "d"): {},
        ("g", "d", "g"): {},
        ("b", "d"): {},
        ("g", "b"): {},
    }


def test_default_bipartition_is_used():
    g = graph("EX1")
    sys_d = reduction_system(g)
    assert rules_dict(sys_d) == rules_dict(
        reduction_system(g, EX1_BP2))


def test_dbl_system():
    g = graph("DBL")
    sys = reduction_system(g)
    assert rules_dict(sys) == {
        ("v2", "v1"): {("w2", "w1"): F(1)},
        ("v1", "v2"): {("w1", "w2"): F(1)},
        ("w1", "w2", "w1"): {},
        ("w2", "w1", "w2"): {},
        ("v1", "w2"): {},
        ("v2", "w1"): {},
        ("w1", "v2"): {},
        ("w2", "v1"): {},
    }


def test_loc_systems():
    for m in (2, 3, 5):
        sys = reduction_system(graph("LOC", m=m))
        assert rules_dict(sys) == {
            ("x",) * m: {("y",): F(1)},
            ("y", "y"): {},
            ("x", "y"): {},
            ("y", "x"): {},
        }
    sys1 = reduction_system(graph("LOC", m=1))
    assert rules_dict(sys1) == {("y", "y"): {}}


def test_omega_flips_replacement_sign():
    g = graph("EX1")
    sys = reduction_system(g, EX1_BP1, {"a|d": 1})
    assert rules_dict(sys)[("g", "d")] == {("a",): F(-1)}
    assert rules_dict(sys)[("d", "g")] == {("b", "b"): F(1)}


def test_invalid_bipartition_rejected():
    g = graph("EX1")
    with pytest.raises(InvalidBipartition):
        reduction_system(g, Bipartition({"v1", "w"}, {"v2"}))
    with pytest.raises(InvalidBipartition):
        reduction_system(g, Bipartition({"v1"}, {"v2", "w"}))


def test_non_bipartite_graph_has_no_derived_system():
    g = graph("ANNULUS")
    with pytest.raises(NotBipartite):
        reduction_system(g)


def test_plain_presentation_of_loc_is_one_power():
    for m in (1, 2, 4):
        pres = build_presentation(graph("LOC", m=m))
        assert sorted(pres.quiver.arrows) == ["x"]
        assert len(pres.relations) == 1
        el = pres.relations[0]
        assert el.terms == {("x|y", ("x",) * (m + 1)): F(1)}


def test_plain_presentation_of_annulus():
    pres = build_presentation(graph("ANNULUS"))
    got = [rel.terms for rel in pres.relations]
    e = "x|y"
    assert {(e, ("x", "x")): F(1)} in got
    assert {(e, ("y", "y")): F(1)} in got
    assert {(e, ("y", "x")): F(1), (e, ("x", "y")): F(-1)} in got


def test_plain_relations_vanish_in_derived_system():
    g = graph("EX1")
    pres = build_presentation(g)
    sys = reduction_system(g, EX1_BP2)  # same quiver as the plain one
    for rel in pres.relations:
        assert not reduce(sys, rel)


def test_rules_from_doc_annulus():
    g = graph("ANNULUS")
    sys = rules_from_doc(quiver_from_graph(g), json.loads(fixture_rules("ANNULUS")))
    assert rules_dict(sys) == {
        ("x", "y"): {("y", "x"): F(1)},
        ("x", "x"): {},
        ("y", "y"): {},
    }


def test_two_cycle_set():
    dbl = graph("DBL")
    pairs = two_cycle_set(reduction_system(dbl))
    assert pairs == [("v1", "w2"), ("v2", "w1"), ("w1", "v2"), ("w2", "v1")]
    ex1 = graph("EX1")
    assert two_cycle_set(reduction_system(ex1)) == []


def test_dimension_formula():
    assert dimension_formula(graph("EX1")) == 2
    assert dimension_formula(graph("DBL")) == 6
    for m in range(1, 6):
        assert dimension_formula(graph("LOC", m=m)) == m
    with pytest.raises(NotApplicable):
        dimension_formula(graph("ANNULUS"))


def test_dimension_formula_single_edge_both_multiplicities_large():
    doc = json.loads(fixture_doc("LOC", m=2))
    doc["vertices"][1]["multiplicity"] = 3
    g = parse_ribbon_graph(json.dumps(doc))
    assert dimension_formula(g) == 2 + 3 + 1


def test_generated_family_systems_build():
    fam = generated_family()
    assert len(fam) >= 20
    for label, doc in fam:
        g = parse_ribbon_graph(doc)
        sys = reduction_system(g)
        assert sys.rules, label
