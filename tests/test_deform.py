import json

import pytest
from fractions import Fraction

from oracles import FormalCtx, deform, verify_formal

from bga.deform import check_parallel, deformed_algebra, semisimplicity
from bga.errors import NonAssociative, NonParallelCochain
from bga.fixtures import fixture_doc, fixture_rules
from bga.hochschild import standard_cocycles
from bga.paths import Element
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import (
    NormalForms,
    ReductionSystem,
    Rule,
    irreducible_basis,
    resolve_overlap,
)
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

F = Fraction


def graph(name, **kw):
    return parse_ribbon_graph(fixture_doc(name, **kw))


def system_for(name, bp=None, **kw):
    g = graph(name, **kw)
    if fixture_rules(name):
        return rules_from_doc(quiver_from_graph(g), json.loads(fixture_rules(name)))
    return reduction_system(g, bp)


def standard_setup(name):
    g = graph(name)
    bp = bipartition(g)
    sys_ = system_for(name)
    alg = irreducible_basis(sys_)
    return g, bp, sys_, alg


def cochain_sum(a, b):
    out = dict(a)
    for ri, el in b.items():
        out[ri] = out[ri] + el if ri in out else el
    return out


# -- construction ----------------------------------------------------------------

def test_rejects_non_parallel_value():
    sys_ = system_for("EX1", Bipartition({"w"}, {"v1", "v2"}))
    q = sys_.quiver
    # rule 2 has the loop tip a*a; d runs between different vertices
    bad = {2: Element.path(q, "a|d", ("d",))}
    with pytest.raises(NonParallelCochain):
        check_parallel(sys_, bad)
    with pytest.raises(NonParallelCochain):
        deform(sys_, bad, FormalCtx(2))


def test_deform_touches_only_supported_rules():
    sys_ = system_for("EX1", Bipartition({"w"}, {"v1", "v2"}))
    q = sys_.quiver
    ds = deform(sys_, {1: Element.path(q, "b|g", ("b",), F(2))}, FormalCtx(3))
    for before, after in zip(sys_.rules, ds.system.rules):
        assert before.tip == after.tip
        assert before.info == after.info
    terms = ds.system.rules[1].rhs.terms
    assert terms[("b|g", ("b",))].text() == "2 t"
    assert terms[("b|g", ("b", "b"))].text() == "1"
    base_keys = set(sys_.rules[0].rhs.terms)
    assert set(ds.system.rules[0].rhs.terms) == base_keys


# -- formal lifts ----------------------------------------------------------------

def test_zero_cochain_reflects_base_confluence():
    assert verify_formal(deform(system_for("EX1"), {}, FormalCtx(4)))
    q = system_for("ANNULUS").quiver
    broken = ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), Element.idempotent(q, "x|y")),
        Rule(q.word_key(("y", "x")), Element.zero(q)),
    ])
    check = verify_formal(deform(broken, {}, FormalCtx(4)))
    assert not check
    amb, diff, order = check.witness
    assert order == 0  # visible before any deformation


def test_every_standard_cocycle_lifts_to_degree_four():
    for name in ("EX1", "DBL"):
        g, bp, sys_, alg = standard_setup(name)
        for s in standard_cocycles(g, bp, sys_):
            check = verify_formal(deform(sys_, s.cochain, FormalCtx(4)))
            assert check.passes, (name, s.label)
            assert check.witness is None


def test_bigon_pair_sum_obstructed_at_order_two():
    g, bp, sys_, alg = standard_setup("DBL")
    std = {s.label: s.cochain for s in standard_cocycles(g, bp, sys_)}
    mixed = cochain_sum(std["D1(w1,w2)"], std["D2(w1,w2)"])
    check = verify_formal(deform(sys_, mixed, FormalCtx(4)))
    assert not check
    amb, diff, order = check.witness
    assert order == 2
    assert amb.word == ("v2", "w1", "v2")
    assert "t^2" in check.describe()
    # the two cocycles of different bigons do combine
    across = cochain_sum(std["D1(w1,w2)"], std["D1(w2,w1)"])
    assert verify_formal(deform(sys_, across, FormalCtx(4)))


def test_resolve_overlap_reproduces_the_formal_witness():
    g, bp, sys_, alg = standard_setup("DBL")
    std = {s.label: s.cochain for s in standard_cocycles(g, bp, sys_)}
    ds = deform(sys_, cochain_sum(std["D1(w1,w2)"], std["D2(w1,w2)"]),
                FormalCtx(4))
    amb, diff, _ = verify_formal(ds).witness
    left, right = resolve_overlap(NormalForms(ds.system), amb)
    assert left - right == diff


# -- specialization at t = 1 --------------------------------------------------------

def test_unit_shift_deformation_is_semisimple():
    for name, dim in (("EX1", 7), ("DBL", 8)):
        g, bp, sys_, alg = standard_setup(name)
        base = semisimplicity(alg)
        assert base.radical_dim > 0
        a = standard_cocycles(g, bp, sys_)[0]
        assert a.kind == "A"
        dalg = deformed_algebra(sys_, a.cochain)
        assert dalg.dim == dim == g.dimension_sum()
        report = semisimplicity(dalg)
        assert report.radical_dim == 0
        assert report.gram_rank == dim
        assert bool(report)


def test_base_radical_dimensions():
    for name, rad in (("EX1", 5), ("DBL", 6)):
        alg = irreducible_basis(system_for(name))
        report = semisimplicity(alg)
        assert (report.dim, report.radical_dim) == (alg.dim, rad), name
        assert not report


def test_non_cocycle_specialization_is_caught():
    sys_ = system_for("ANNULUS")
    q = sys_.quiver
    bad = {0: Element.idempotent(q, "x|y")}
    with pytest.raises(NonAssociative):
        deformed_algebra(sys_, bad)
