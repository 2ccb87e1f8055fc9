import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from loaders import NAMED, algebra, generated_family, graph, system_for
from oracles import (
    FormalCtx,
    add,
    cochain_sum,
    deform,
    trace_form_rank,
    verify_formal,
)
from test_cocycle_oracle import bipartite_graphs
from test_corpus import (
    SLOW_AT_ONE,
    Corpus,
    inputs,
    random_cochain,
    system_of,
)

from bga.deform import deformed_algebra, semisimplicity
from bga.errors import (
    NonAssociative,
    NonParallelCochain,
    NonTerminating,
    SchemaError,
)
from bga.fixtures import fixture_rules
from bga.hochschild import (
    cochain_from_values_doc,
    cochain_space,
    standard_cocycles,
)
from bga.presentation import reduction_system
from bga.rewrite import (
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    check_cochain,
    checked_system,
    resolve_overlap,
)
from bga.ribbon import Bipartition, parse_ribbon_graph

F = Fraction


def standard_setup(name):
    alg = algebra(name)
    return graph(name), alg.system, alg


# -- construction ----------------------------------------------------------------

def test_rejects_non_parallel_value():
    sys_ = system_for("EX1", Bipartition({"w"}, {"v1", "v2"}))
    q = sys_.quiver
    # rule 2 has the loop tip a*a; d runs between different vertices
    bad = {2: {q.key("a|d", ("d",)): 1}}
    with pytest.raises(NonParallelCochain):
        check_cochain(sys_, bad)
    with pytest.raises(NonParallelCochain):
        deform(sys_, bad, FormalCtx(2))


def test_deform_touches_only_supported_rules():
    sys_ = system_for("EX1", Bipartition({"w"}, {"v1", "v2"}))
    q = sys_.quiver
    ds = deform(sys_, {1: {q.key("b|g", ("b",)): F(2)}}, FormalCtx(3))
    for before, after in zip(sys_.rules, ds.system.rules):
        assert before.tip == after.tip
        assert before.info == after.info
    terms = ds.system.rules[1].rhs
    assert terms[("b|g", ("b",))].text() == "2 t"
    assert terms[("b|g", ("b", "b"))].text() == "1"
    base_keys = set(sys_.rules[0].rhs)
    assert set(ds.system.rules[0].rhs) == base_keys


# -- formal lifts ----------------------------------------------------------------

def test_zero_cochain_reflects_base_confluence():
    assert verify_formal(deform(system_for("EX1"), {}, FormalCtx(4)))
    q = system_for("ANNULUS").quiver
    broken = ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), {("x|y", ()): 1}),
        Rule(q.word_key(("y", "x")), {}),
    ])
    check = verify_formal(deform(broken, {}, FormalCtx(4)))
    assert not check
    amb, diff, order = check.witness
    assert order == 0  # visible before any deformation


def test_every_standard_cocycle_lifts_to_degree_four():
    for name in ("EX1", "DBL"):
        g, sys_, alg = standard_setup(name)
        for s in standard_cocycles(g, sys_):
            check = verify_formal(deform(sys_, s.cochain, FormalCtx(4)))
            assert check.passes, (name, s.label)
            assert check.witness is None


def test_bigon_pair_sum_obstructed_at_order_two():
    g, sys_, alg = standard_setup("DBL")
    std = {s.label: s.cochain for s in standard_cocycles(g, sys_)}
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
    g, sys_, alg = standard_setup("DBL")
    std = {s.label: s.cochain for s in standard_cocycles(g, sys_)}
    ds = deform(sys_, cochain_sum(std["D1(w1,w2)"], std["D2(w1,w2)"]),
                FormalCtx(4))
    amb, diff, _ = verify_formal(ds).witness
    left, right = resolve_overlap(ds.system, amb)
    assert add(left, right, -1) == diff


# -- specialization at t = 1 --------------------------------------------------------

def test_unit_shift_deformation_is_semisimple():
    for name, dim in (("EX1", 7), ("DBL", 8)):
        g, sys_, alg = standard_setup(name)
        base = semisimplicity(alg)
        assert base.radical_dim > 0
        a = standard_cocycles(g, sys_)[0]
        assert a.kind == "A"
        dalg = deformed_algebra(sys_, a.cochain)
        assert dalg.dim == dim == g.dimension_sum()
        report = semisimplicity(dalg)
        assert report.radical_dim == 0
        assert report.gram_rank == dim
        assert bool(report)


def test_base_radical_dimensions():
    for name, rad in (("EX1", 5), ("DBL", 6)):
        alg = algebra(name)
        report = semisimplicity(alg)
        assert (report.dim, report.radical_dim) == (alg.dim, rad), name
        assert not report
    # A / rad = k^{Q0} and the quiver has one vertex per edge, so the
    # radical has dimension dim - |E| on every graph
    cases = [(name, graph(name), system_for(name))
             for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2")
             + tuple(f"LOC_{m}" for m in range(1, 6))]
    for label, doc in generated_family():
        g = parse_ribbon_graph(doc)
        cases.append((label, g, reduction_system(g)))
    for label, g, system in cases:
        alg = FiniteDimAlgebra(system)
        assert semisimplicity(alg).radical_dim \
            == alg.dim - len(g.edges), label
    assert len(cases) >= 30


# -- the trace form against the whole table ---------------------------------------

def assert_trace_form(alg, label):
    """``semisimplicity`` gives the report of the table-based oracle;
    returns the radical dimension."""
    gram_rank = trace_form_rank(alg)
    radical = alg.dim - gram_rank
    assert semisimplicity(alg).to_doc() == {
        "semisimple": radical == 0, "radical_dim": radical,
        "gram_rank": gram_rank}, label
    return radical


def test_trace_form_on_named_and_family_algebras():
    cases = [(name, graph(name), system_for(name)) for name in NAMED]
    for label, doc in generated_family():
        g = parse_ribbon_graph(doc)
        cases.append((label, g, reduction_system(g)))
    radicals = {}
    for label, g, system in cases:
        assert_trace_form(FiniteDimAlgebra(system), label)
        if len(g.edges) < 2 or fixture_rules(label):
            continue
        for s in standard_cocycles(g, system):
            alg = deformed_algebra(system, s.cochain)
            radicals.setdefault(s.kind, []).append(
                assert_trace_form(alg, (label, s.label)))
    # A is semisimple at t = 1, and B, C and D keep a radical
    assert set(radicals["A"]) == {0}
    for kind in ("B", "C", "D1", "D2"):
        assert all(radicals[kind]), kind
    assert sum(map(len, radicals.values())) >= 100


def test_trace_form_on_the_corpus_cochains(tmp_path):
    checked = 0
    for label, system, cochain in corpus_cochains(tmp_path):
        try:
            alg = deformed_algebra(system, cochain)
        except (NonAssociative, NonParallelCochain, NonTerminating,
                SchemaError):
            continue
        assert_trace_form(alg, label)
        checked += 1
    assert checked >= 20


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_trace_form_on_drawn_graphs(doc):
    g = parse_ribbon_graph(doc)
    system = reduction_system(g)
    assert_trace_form(FiniteDimAlgebra(system), "drawn")
    if len(g.edges) >= 2:
        for s in standard_cocycles(g, system):
            assert_trace_form(deformed_algebra(system, s.cochain), s.label)


def test_non_cocycle_specialization_is_caught():
    sys_ = system_for("ANNULUS")
    bad = {0: {("x|y", ()): 1}}
    with pytest.raises(NonAssociative):
        deformed_algebra(sys_, bad)


# -- the t = 1 system without a second validation ----------------------------------

def rule_entries(system):
    """Tips, rhs terms in their order with each coefficient's type, and
    tags of the rules."""
    return [(r.tip, [(k, type(c), c) for k, c in r.rhs.items()], r.info)
            for r in system.rules]


def table_outcome(alg):
    """The table in its order with each value's type, or the error text."""
    try:
        return [(ij, [(k, type(c), c) for k, c in row.items()])
                for ij, row in alg.table.items()]
    except NonTerminating as exc:
        return str(exc)


def validated_t1_system(system, cochain):
    """The t = 1 rules run through ``checked_system``."""
    return checked_system(system.quiver, [
        Rule(r.tip, add(r.rhs, cochain.get(ri, {})), r.info)
        for ri, r in enumerate(system.rules)])


def assert_with_values_validates(system, cochain, label):
    """``with_values`` is the system ``checked_system`` builds from the
    same rules, on the base tip index and with an empty memo."""
    check_cochain(system, cochain)
    fast = system.with_values(cochain)
    slow = validated_t1_system(system, cochain)
    assert rule_entries(fast) == rule_entries(slow), label
    assert fast._ends is system._ends and fast._ends == slow._ends, label
    assert fast.zero_pairs == slow.zero_pairs, label
    assert fast._memo == {} and fast._memo is not system._memo, label
    a, b = FiniteDimAlgebra(fast), FiniteDimAlgebra(slow)
    assert a.basis == b.basis, label
    assert table_outcome(a) == table_outcome(b), label


def corpus_cochains(tmp_path):
    """(label, system, cochain) for every seeded custom cochain that the
    corpus runs at t = 1, drawn as ``test_corpus.custom`` draws them."""
    corpus = Corpus(tmp_path)
    rng = random.Random(22)
    for label, _, source in inputs(corpus):
        system = system_of(source)
        alg = FiniteDimAlgebra(system)
        coords = cochain_space(alg)
        for i in range(10):
            doc = random_cochain(rng, system, alg, coords)
            if (label, i) not in SLOW_AT_ONE:
                yield (label, i), system, cochain_from_values_doc(
                    system, json.loads(doc))


def test_with_values_is_the_validated_t1_system():
    cases = [(name, graph(name), system_for(name)) for name in NAMED]
    for label, doc in generated_family():
        g = parse_ribbon_graph(doc)
        cases.append((label, g, reduction_system(g)))
    count = 0
    for label, g, system in cases:
        assert_with_values_validates(system, {}, label)
        if len(g.edges) < 2 or fixture_rules(label):
            continue
        for s in standard_cocycles(g, system):
            assert_with_values_validates(system, s.cochain, (label, s.label))
            count += 1
    assert count >= 100


def test_with_values_agrees_on_the_corpus_cochains(tmp_path):
    kept = rejected = 0
    for label, system, cochain in corpus_cochains(tmp_path):
        try:
            check_cochain(system, cochain)
        except (NonParallelCochain, SchemaError) as exc:
            # deformed_algebra raises what checked_system raises on the
            # t = 1 rules
            with pytest.raises(type(exc)) as got:
                deformed_algebra(system, cochain)
            assert str(got.value) == str(exc), label
            if isinstance(exc, SchemaError):
                with pytest.raises(SchemaError) as built:
                    validated_t1_system(system, cochain)
                assert str(built.value) == str(exc), label
            rejected += 1
            continue
        assert_with_values_validates(system, cochain, label)
        kept += 1
    assert kept >= 200 and rejected >= 20
