import json

import pytest
from fractions import Fraction

from bga.errors import InfiniteDimensional, NonAssociative, SchemaError
from bga.fixtures import fixture_doc, fixture_rules
from bga.paths import Element, Quiver
from bga.presentation import (
    build_presentation,
    build_reduction_system,
    quiver_from_graph,
    rules_from_doc,
)
from bga.rewrite import (
    Rule,
    ReductionSystem,
    check_diamond,
    enumerate_ambiguities,
    irreducible_basis,
    irreducible_words,
    reduce,
    resolve_overlap,
)
from bga.ribbon import Bipartition, parse_ribbon_graph

F = Fraction


def graph(name, **kw):
    return parse_ribbon_graph(fixture_doc(name, **kw))


def system_for(name, bp=None, **kw):
    g = graph(name, **kw)
    if fixture_rules(name):
        return rules_from_doc(quiver_from_graph(g), json.loads(fixture_rules(name)))
    return build_reduction_system(build_presentation(g), bp)


EX1_BP1 = Bipartition({"w"}, {"v1", "v2"})


def two_loop_quiver():
    return Quiver(vertices=["1"], arrows={"x": ("1", "1"), "y": ("1", "1")})


def planted_broken_system():
    q = two_loop_quiver()
    return ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), Element.idempotent(q, "1")),
        Rule(q.word_key(("y", "x")), Element.zero(q)),
    ])


# -- validation ---------------------------------------------------------------

def test_rejects_short_tip():
    q = two_loop_quiver()
    with pytest.raises(SchemaError):
        ReductionSystem(q, [Rule(q.word_key(("x",)), Element.zero(q))])


def test_rejects_subword_tips():
    q = two_loop_quiver()
    with pytest.raises(SchemaError):
        ReductionSystem(q, [
            Rule(q.word_key(("x", "y")), Element.zero(q)),
            Rule(q.word_key(("x", "y", "x")), Element.zero(q)),
        ])


def test_rejects_non_parallel_rhs():
    g = graph("EX1")
    quiver = quiver_from_graph(g, EX1_BP1)
    with pytest.raises(SchemaError):
        # d goes between different vertices; an idempotent is not parallel
        ReductionSystem(quiver, [
            Rule(quiver.word_key(("d", "a")), Element.idempotent(quiver, "a|d")),
        ])


def test_rejects_reducible_rhs():
    q = two_loop_quiver()
    with pytest.raises(SchemaError):
        ReductionSystem(q, [
            Rule(q.word_key(("x", "x")), Element.zero(q)),
            Rule(q.word_key(("y", "y")),
                 Element.path(q, "1", ("x", "x"))),
        ])


# -- reduction ----------------------------------------------------------------

def test_reduce_single_steps():
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    assert reduce(sys, Element.path(q, "a|d", ("g", "d"))) == \
        Element.path(q, "a|d", ("a",))
    assert reduce(sys, Element.path(q, "b|g", ("d", "g"))) == \
        Element.path(q, "b|g", ("b", "b"))
    assert not reduce(sys, Element.path(q, "b|g", ("b", "b", "b")))
    assert not reduce(sys, Element.path(q, "b|g", ("b",) * 4))


def test_reduce_is_linear_and_idempotent():
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    el = Element.path(q, "a|d", ("g", "d"), F(2)) - Element.path(q, "a|d", ("a",))
    nf = reduce(sys, el)
    assert nf == Element.path(q, "a|d", ("a",))
    assert reduce(sys, nf) == nf


def test_reduce_does_not_mutate_input():
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    el = Element.path(q, "a|d", ("g", "d"))
    before = dict(el.terms)
    reduce(sys, el)
    assert el.terms == before


def test_strategies_agree_on_confluent_system():
    sys = system_for("DBL")
    q = sys.quiver
    el = Element.path(q, "v1|w1", ("v2", "v1", "v2", "v1"))
    assert reduce(sys, el, strategy="leftmost") == \
        reduce(sys, el, strategy="rightmost")


# -- ambiguities ---------------------------------------------------------------

def test_loc_plain_power_rule_has_one_ambiguity():
    g = graph("LOC", m=2)
    quiver = quiver_from_graph(g)  # only the loop x survives
    sys = rules_from_doc(quiver, {"rules": [{"tip": ["x", "x", "x"], "rhs": []}]})
    ambs = enumerate_ambiguities(sys)
    assert len(ambs) == 1
    amb = ambs[0]
    assert (amb.u, amb.v, amb.w) == ("x", ("x", "x"), ("x",))


def test_ex1_ambiguities_respect_minimality():
    sys = system_for("EX1", EX1_BP1)
    triples = {(a.u, a.v, a.w) for a in enumerate_ambiguities(sys)}
    assert ("b", ("b", "b"), ("b",)) in triples
    assert ("b", ("b", "b"), ("d",)) in triples
    assert ("b", ("b", "b"), ("b", "b")) not in triples


# -- diamond check --------------------------------------------------------------

def test_diamond_passes_on_fixtures():
    for args in (("EX1", EX1_BP1), ("EX1", None), ("DBL", None),
                 ("ANNULUS", None), ("TORUS", None), ("ANN2", None)):
        report = check_diamond(system_for(*args))
        assert report.confluent, args
        assert report.n_ambiguities > 0
    for m in range(1, 6):
        assert check_diamond(system_for("LOC", m=m)).confluent


def test_diamond_fails_on_planted_system():
    sys = planted_broken_system()
    report = check_diamond(sys)
    assert not report.confluent
    amb, left, right = report.failures[0]
    assert amb.word == ("x", "y", "x")
    nfs = {frozenset(left.terms.items()), frozenset(right.terms.items())}
    assert nfs == {frozenset({(("1", ("x",)), F(1))}), frozenset()}


def test_resolve_overlap_gives_the_diamond_failures():
    sys = planted_broken_system()
    resolved = {amb.word: resolve_overlap(sys, amb)
                for amb in enumerate_ambiguities(sys)}
    report = check_diamond(sys)
    assert [amb.word for amb, _, _ in report.failures] == \
        [word for word, (left, right) in resolved.items() if left != right]
    for amb, left, right in report.failures:
        assert resolved[amb.word] == (left, right)


def test_ambiguities_are_enumerated_once_per_system():
    sys = system_for("EX1", EX1_BP1)
    assert enumerate_ambiguities(sys) is enumerate_ambiguities(sys)


# -- bases ----------------------------------------------------------------------

def test_ex1_basis_both_bipartitions():
    alg1 = irreducible_basis(system_for("EX1", EX1_BP1))
    assert set(alg1.basis) == {
        ("a|d", ()), ("b|g", ()),
        ("a|d", ("a",)), ("b|g", ("b",)), ("b|g", ("b", "b")),
        ("b|g", ("g",)), ("a|d", ("d",)),
    }
    alg2 = irreducible_basis(system_for("EX1"))
    assert set(alg2.basis) == {
        ("a|d", ()), ("b|g", ()),
        ("b|g", ("b",)), ("b|g", ("g",)), ("a|d", ("d",)),
        ("b|g", ("d", "g")), ("a|d", ("g", "d")),
    }
    assert alg1.dim == alg2.dim == 7


def test_fixture_dimensions_match_multiplicity_sum():
    for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2"):
        g = graph(name)
        alg = irreducible_basis(system_for(name))
        assert alg.dim == g.dimension_sum(), name
    for m in range(1, 6):
        alg = irreducible_basis(system_for("LOC", m=m))
        assert alg.dim == m + 1


def test_basis_order_is_breadth_first():
    alg = irreducible_basis(system_for("LOC", m=3))
    words = [k[1] for k in alg.basis]
    assert sorted(map(len, words)) == [len(w) for w in words]
    assert words[0] == () and all(words[1:])


def test_infinite_dimensional_detected():
    q = two_loop_quiver()
    sys = ReductionSystem(q, [Rule(q.word_key(("x", "y")), Element.zero(q))])
    with pytest.raises(InfiniteDimensional):
        irreducible_words(sys)


def test_mult_table_matches_reduce():
    sys = system_for("EX1", EX1_BP1)
    alg = irreducible_basis(sys)
    q = sys.quiver
    i = alg.index[("b|g", ("g",))]
    j = alg.index[("a|d", ("d",))]
    # g * d is the tip of the first rule, normal form a
    assert alg.table[(i, j)] == {alg.index[("a|d", ("a",))]: F(1)}
    assert (j, j) not in alg.table


def test_mult_table_associativity():
    for name in ("EX1", "DBL", "ANN2"):
        alg = irreducible_basis(system_for(name))
        assert alg.check_associative()


def test_idempotents_sum_to_unit():
    alg = irreducible_basis(system_for("DBL"))
    unit = [F(0)] * alg.dim
    for v in alg.quiver.vertices:
        unit[alg.index[(v, ())]] = F(1)
    for i in range(alg.dim):
        b = [F(0)] * alg.dim
        b[i] = F(1)
        assert alg.multiply_coords(unit, b) == b
        assert alg.multiply_coords(b, unit) == b
