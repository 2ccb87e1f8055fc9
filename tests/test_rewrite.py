import pytest
from fractions import Fraction
from hypothesis import given, settings

from loaders import NAMED, generated_family, graph, star_doc, system_for
from oracles import last_redex, multiply, reduce_rightmost
from test_cocycle_oracle import bipartite_graphs

from bga.deform import deformed_algebra, verify_lift
from bga.errors import (
    InfiniteDimensional,
    NonAssociative,
    NonTerminating,
    SchemaError,
)
from bga.fixtures import fixture_rules
from bga.hochschild import hh2, standard_cocycles
from bga.paths import Quiver
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import (
    Ambiguity,
    FiniteDimAlgebra,
    Rule,
    ReductionSystem,
    check_diamond,
    checked_system,
    enumerate_ambiguities,
    irreducible_words,
    overlap_sides,
    reduce,
    resolve_overlap,
)
from bga.ribbon import Bipartition, parse_ribbon_graph

F = Fraction


EX1_BP1 = Bipartition({"w"}, {"v1", "v2"})


def two_loop_quiver():
    return Quiver(vertices=["1"], arrows={"x": ("1", "1"), "y": ("1", "1")})


def planted_broken_system():
    q = two_loop_quiver()
    return ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), {("1", ()): 1}),
        Rule(q.word_key(("y", "x")), {}),
    ])


def shared_pair_system():
    """Tips x*y*x and x*y*y share their first two letters, x*y*x and
    y*y*x their last two."""
    q = two_loop_quiver()
    return ReductionSystem(q, [
        Rule(q.word_key(word), {})
        for word in (("x", "y", "x"), ("x", "y", "y"), ("y", "y", "x"))])


def all_pairs_zero_system():
    """Every product of two of the loops x, y is 0: each overlap has three
    letters and is monomial, and each product of two arrows is settled at
    its junction."""
    q = two_loop_quiver()
    return ReductionSystem(q, [Rule(q.word_key((a, b)), {})
                               for a in "xy" for b in "xy"])


def half_unit_shift_system():
    """The t = 1 system of DBL deformed by half its unit-shift cocycle:
    rhs coefficients mix int and Fraction."""
    g = graph("DBL")
    sys = system_for("DBL")
    a = standard_cocycles(g, sys)[0]
    half = {ri: {k: c * F(1, 2) for k, c in value.items()}
            for ri, value in a.cochain.items()}
    return deformed_algebra(sys, half).system


def long_tip_star():
    """star_doc(2, [6, 1, 1]): its two longest tips have length 12."""
    return reduction_system(parse_ribbon_graph(star_doc(2, [6, 1, 1])))


# -- validation ---------------------------------------------------------------

def test_rejects_short_tip():
    q = two_loop_quiver()
    with pytest.raises(SchemaError):
        checked_system(q, [Rule(q.word_key(("x",)), {})])


def test_rejects_subword_tips():
    q = two_loop_quiver()
    with pytest.raises(SchemaError):
        checked_system(q, [
            Rule(q.word_key(("x", "y")), {}),
            Rule(q.word_key(("x", "y", "x")), {}),
        ])


def test_tips_sharing_their_last_two_letters():
    # z*y*x, x*y*x and y*y*x all end in y*x: the redex is the leftmost by
    # start, and a subword error names the inner tip of least rule index
    q = Quiver(vertices=["1"], arrows={a: ("1", "1") for a in "xyz"})
    tips = [("z", "y", "x"), ("x", "y", "x"), ("y", "y", "x")]
    sys = ReductionSystem(q, [Rule(q.word_key(t), {})
                              for t in tips])
    assert sys.first_redex(("y", "y", "x", "y", "x")) == (0, 2)
    assert sys.first_redex(("x", "z", "y", "x", "y", "x")) == (1, 0)
    assert sys.first_redex(("z", "z", "x", "y", "y", "x")) == (3, 2)
    assert sys.first_redex(("y", "x")) is None
    assert sys.first_redex(("x", "y", "z", "y", "y")) is None
    with pytest.raises(SchemaError) as err:
        checked_system(q, [Rule(q.word_key(t), {}) for t in
                           tips + [("y", "y", "x", "z", "y", "x")]])
    assert str(err.value) == ("tip ('z', 'y', 'x') is a subword of tip "
                              "('y', 'y', 'x', 'z', 'y', 'x')")


def test_rejects_non_parallel_rhs():
    g = graph("EX1")
    quiver = quiver_from_graph(g, EX1_BP1)
    with pytest.raises(SchemaError):
        # d goes between different vertices; an idempotent is not parallel
        checked_system(quiver, [
            Rule(quiver.word_key(("d", "a")), {("a|d", ()): 1}),
        ])


def test_rejects_reducible_rhs():
    q = two_loop_quiver()
    with pytest.raises(SchemaError):
        checked_system(q, [
            Rule(q.word_key(("x", "x")), {}),
            Rule(q.word_key(("y", "y")),
                 {q.key("1", ("x", "x")): 1}),
        ])


def assert_derived_rules_pass_the_checks(system, label):
    """The derived system is what ``checked_system`` builds from its rules:
    the checks accept them, and the rules, tip index and zero pairs are
    the same."""
    checked = checked_system(system.quiver, system.rules)
    assert [(r.tip, r.rhs, r.info) for r in checked.rules] \
        == [(r.tip, r.rhs, r.info) for r in system.rules], label
    assert checked._ends == system._ends, label
    assert checked.zero_pairs == system.zero_pairs, label


def test_derived_rules_pass_the_checks():
    cases = [(name, system_for(name)) for name in NAMED
             if not fixture_rules(name)]
    for name, parts in (("EX1", ({"v1", "v2"}, {"w"})),
                        ("DBL", ({"v"}, {"w"}))):
        for one, two in (parts, parts[::-1]):
            cases.append(((name, sorted(one)), reduction_system(
                graph(name), Bipartition(one, two))))
    cases += [(label, reduction_system(parse_ribbon_graph(doc)))
              for label, doc in generated_family()]
    for label, system in cases:
        assert_derived_rules_pass_the_checks(system, label)
    assert len(cases) >= 30


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_derived_rules_of_drawn_graphs_pass_the_checks(doc):
    assert_derived_rules_pass_the_checks(
        reduction_system(parse_ribbon_graph(doc)), "drawn")


def test_with_values_keeps_a_cancelled_rhs_zero_free():
    # the negated rhs of the ("a", e) rule g*d -> a makes it a zero rule
    sys = system_for("EX1", EX1_BP1)
    ri = next(ri for ri, r in enumerate(sys.rules) if r.tip[1] == ("g", "d"))
    rhs = sys.rules[ri].rhs
    assert rhs == {("a|d", ("a",)): 1} and ("g", "d") not in sys.zero_pairs
    t1 = sys.with_values({ri: {k: -c for k, c in rhs.items()}})
    assert t1.rules[ri].rhs == {}
    assert sys.rules[ri].rhs == {("a|d", ("a",)): 1}    # nothing changed
    assert t1.zero_pairs == sys.zero_pairs | {("g", "d")}
    touching = [amb for amb in enumerate_ambiguities(t1)
                if ri in (amb.rule_index, amb.completion_index)]
    assert touching and not any(amb.is_monomial(sys) for amb in touching)
    assert any(amb.is_monomial(t1) for amb in touching)


# -- reduction ----------------------------------------------------------------

def test_reduce_single_steps():
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    assert reduce(sys, {q.key("a|d", ("g", "d")): 1}) == \
        {q.key("a|d", ("a",)): 1}
    assert reduce(sys, {q.key("b|g", ("d", "g")): 1}) == \
        {q.key("b|g", ("b", "b")): 1}
    assert not reduce(sys, {q.key("b|g", ("b", "b", "b")): 1})
    assert not reduce(sys, {q.key("b|g", ("b",) * 4): 1})


def test_reduce_is_linear_and_idempotent():
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    el = {q.key("a|d", ("g", "d")): F(2), q.key("a|d", ("a",)): -1}
    nf = reduce(sys, el)
    assert nf == {q.key("a|d", ("a",)): 1}
    assert reduce(sys, nf) == nf


def test_reduce_does_not_mutate_input():
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    el = {q.key("a|d", ("g", "d")): 1}
    before = dict(el)
    reduce(sys, el)
    assert el == before


def test_strategies_agree_on_confluent_system():
    sys = system_for("DBL")
    q = sys.quiver
    el = {q.key("v1|w1", ("v2", "v1", "v2", "v1")): 1}
    assert reduce(sys, el) == reduce_rightmost(sys, el)



def test_strategy_picks_the_redex_inside_a_word():
    # x*y*x holds x*y at 0 and y*x at 1; the broken system tells them apart
    sys = planted_broken_system()
    el = {sys.quiver.key("1", ("x", "y", "x")): 1}
    assert reduce(sys, el) == {sys.quiver.key("1", ("x",)): 1}
    assert not reduce_rightmost(sys, el)


def _composable_words(q, max_len):
    level = [(a,) for a in sorted(q.arrows)]
    while level:
        yield from level
        level = [word + (name,) for word in level if len(word) < max_len
                 for name in q.arrows_into(q.arrows[word[-1]][0])]


def test_tip_index_matches_a_scan_of_every_tip():
    cases = [(system_for(name), 6)
             for name in ("EX1", "DBL", "ANNULUS", "TORUS", "LOC_3")]
    cases.append((shared_pair_system(), 6))
    # words one letter longer than the longest tip, which is 12
    long = long_tip_star()
    longest = max(len(rule.tip[1]) for rule in long.rules)
    assert longest >= 7
    cases.append((long, longest + 1))
    for sys, max_len in cases:
        for word in _composable_words(sys.quiver, max_len):
            hits = [(i, ri) for ri, rule in enumerate(sys.rules)
                    for i in range(len(word))
                    if word[i:i + len(rule.tip[1])] == rule.tip[1]]
            assert sys.first_redex(word) == min(hits, default=None)
            assert last_redex(sys, word) == max(hits, default=None)
            assert sys.suffix_rule(word) == next(
                (ri for i, ri in hits
                 if i + len(sys.rules[ri].tip[1]) == len(word)), None)

# -- ambiguities ---------------------------------------------------------------

def test_loc_plain_power_rule_has_one_ambiguity():
    g = graph("LOC_2")
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


def oracle_completion(system, word):
    """Index of the one rule whose tip ends the word, by a scan of every
    rule."""
    [ri] = [ri for ri, rule in enumerate(system.rules)
            if word[-len(rule.tip[1]):] == rule.tip[1]]
    return ri


def oracle_ambiguities(system):
    """The ambiguity search that scans v*w2 and w2 for a redex anywhere
    with ``first_redex``, as (u, v, w, rule_index, completion_index)
    tuples, sorted by the whole word."""
    q = system.quiver
    max_w = max((len(rule.tip[1]) for rule in system.rules), default=0) - 1
    out = []
    for ri, rule in enumerate(system.rules):
        origin, tip_word = rule.tip
        u, v = tip_word[0], tip_word[1:]
        frontier = [()]
        while frontier:
            w = frontier.pop()
            attach = origin if not w else q.arrows[w[-1]][0]
            for name in q.arrows_into(attach):
                w2 = w + (name,)
                if system.first_redex(v + w2) is not None:
                    if system.first_redex(w2) is None:
                        out.append(Ambiguity(
                            u, v, w2, ri, oracle_completion(system, v + w2)))
                elif len(w2) < max_w:
                    frontier.append(w2)
    out.sort(key=lambda a: (a.rule_index, a.word))
    return [(a.u, a.v, a.w, a.rule_index, a.completion_index) for a in out]


def assert_oracle_ambiguities(system):
    assert [(a.u, a.v, a.w, a.rule_index, a.completion_index)
            for a in enumerate_ambiguities(system)] == \
        oracle_ambiguities(system)


def test_ambiguities_match_the_redex_scan_oracle():
    systems = [system_for(*args) for args in (
        ("EX1", EX1_BP1), ("EX1", None), ("DBL", None), ("LOC_3", None),
        ("ANNULUS", None), ("TORUS", None), ("ANN2", None))]
    systems += [system_for(f"LOC_{m}") for m in range(1, 6)]
    systems += [reduction_system(parse_ribbon_graph(doc))
                for _, doc in generated_family()]
    long = long_tip_star()
    assert max(len(rule.tip[1]) for rule in long.rules) >= 12
    systems += [long, shared_pair_system(), planted_broken_system()]
    for sys in systems:
        assert_oracle_ambiguities(sys)


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs())
def test_ambiguities_match_the_redex_scan_oracle_on_drawn_graphs(doc):
    assert_oracle_ambiguities(reduction_system(parse_ribbon_graph(doc)))


# -- diamond check --------------------------------------------------------------

def test_diamond_passes_on_fixtures():
    for args in (("EX1", EX1_BP1), ("EX1", None), ("DBL", None),
                 ("ANNULUS", None), ("TORUS", None), ("ANN2", None)):
        report = check_diamond(system_for(*args))
        assert report.confluent, args
        assert report.n_ambiguities > 0
    for m in range(1, 6):
        assert check_diamond(system_for(f"LOC_{m}")).confluent


def test_diamond_fails_on_planted_system():
    sys = planted_broken_system()
    report = check_diamond(sys)
    assert not report.confluent
    amb, left, right = report.failures[0]
    assert amb.word == ("x", "y", "x")
    nfs = {frozenset(left.items()), frozenset(right.items())}
    assert nfs == {frozenset({(("1", ("x",)), F(1))}), frozenset()}
    # the left side is a copy: the memo's entry is shared and stays put
    uvw = overlap_sides(sys, amb)[0]
    assert left == sys.normal_form(uvw) and left is not sys.normal_form(uvw)


def test_resolve_overlap_gives_the_diamond_failures():
    sys = planted_broken_system()
    resolved = {amb.word: resolve_overlap(sys, amb)
                for amb in enumerate_ambiguities(sys)}
    report = check_diamond(sys)
    assert [amb.word for amb, _, _ in report.failures] == \
        [word for word, (left, right) in resolved.items() if left != right]
    for amb, left, right in report.failures:
        assert resolved[amb.word] == (left, right)


def test_overlap_left_key_rewrites_its_tip_first():
    for args in (("EX1", EX1_BP1), ("DBL", None), ("ANNULUS", None),
                 ("ANN2", None)):
        sys = system_for(*args)
        q = sys.quiver
        nf = sys.normal_form
        for amb in enumerate_ambiguities(sys):
            uvw, vw, times_u, factors = overlap_sides(sys, amb)
            origin = q.arrows[amb.w[-1]][0]
            assert (uvw, vw) == ((origin, amb.word),
                                 (origin, amb.v + amb.w))
            # the factors are basis paths, and u*v*w is their product
            basis = set(irreducible_words(sys))
            assert factors == ((q.arrows[amb.u][0], (amb.u,)),
                               (q.arrows[amb.v[-1]][0], amb.v),
                               (origin, amb.w))
            assert basis.issuperset(factors), (args, amb)
            assert q.concat_key(q.concat_key(factors[0], factors[1]),
                                factors[2]) == uvw
            assert sys.steps(uvw)[0] == (1, origin, (), amb.rule_index, amb.w)
            w_el = {q.key(origin, amb.w): 1}
            rhs_w = reduce(sys, multiply(q, sys.rules[amb.rule_index].rhs,
                                         w_el))
            assert nf(uvw) == rhs_w, (args, amb)
            u_el = {q.key(q.arrows[amb.u][0], (amb.u,)): 1}
            right = {times_u(k): c for k, c in nf(vw).items()}
            assert right == multiply(q, u_el, nf(vw))


def test_normal_forms_skip_reduce_for_irreducible_paths(monkeypatch):
    sys = system_for("EX1", EX1_BP1)
    q = sys.quiver
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr("bga.rewrite.reduce", counted)
    key = ("b|g", ("b", "b"))
    assert sys.first_redex(key[1]) is None
    assert sys.normal_form(key) == {key: 1}
    assert sys.steps(key) == []
    assert calls == []


def test_normal_forms_scan_each_word_once(monkeypatch):
    # the memo runs reduce's own loop: a path's normal form costs exactly
    # the redex scans of reduce on it, with no rewrite made twice; each
    # path is asked of a fresh system, whose memo is empty
    base = system_for("EX1", EX1_BP1)
    q, rules = base.quiver, base.rules
    scans = []
    first_redex = ReductionSystem.first_redex

    def counted(self, word):
        scans.append(word)
        return first_redex(self, word)

    monkeypatch.setattr(ReductionSystem, "first_redex", counted)
    lengths = set()
    for word in _composable_words(q, 6):
        key = (q.arrows[word[-1]][0], word)
        sys = ReductionSystem(q, rules)
        scans.clear()
        sys.normal_form(key)
        by_memo = list(scans)
        sys = ReductionSystem(q, rules)
        scans.clear()
        reduce(sys, {q.key(key[0], word): 1})
        assert by_memo == scans, word
        lengths.add(min(len(sys.steps(key)), 2))
    assert lengths == {0, 1, 2}


def test_normal_forms_keep_the_letter_budget(monkeypatch):
    # a path that one redex scan settles is charged the letters reduce
    # charges it: a zero rewrite of a word over budget raises reduce's
    # error, and an irreducible word is never charged
    dims = hh2(FiniteDimAlgebra(all_pairs_zero_system())).to_doc()
    monkeypatch.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 2)
    sys = shared_pair_system()
    q = sys.quiver
    zero = q.word_key(("x", "y", "x"))
    assert not sys.rules[sys.first_redex(zero[1])[1]].rhs
    with pytest.raises(NonTerminating) as by_reduce:
        reduce(sys, {zero: 1})
    with pytest.raises(NonTerminating) as by_memo:
        sys.normal_form(zero)
    assert str(by_memo.value) == str(by_reduce.value)
    irreducible = q.word_key(("x",) * 4)
    assert sys.first_redex(irreducible[1]) is None
    assert reduce(sys, {irreducible: 1}) == {irreducible: 1}
    assert sys.normal_form(irreducible) == {irreducible: 1}
    assert sys.steps(irreducible) == []
    # a product or an overlap that a monomial rule settles without a
    # reduction is still charged when it is over budget: the table and
    # hh2 raise reduce's error, as when every such word was reduced
    square = all_pairs_zero_system()
    assert not any(amb.is_monomial(square)
                   for amb in enumerate_ambiguities(square))
    with pytest.raises(NonTerminating) as by_hh2:
        hh2(FiniteDimAlgebra(all_pairs_zero_system()))
    with pytest.raises(NonTerminating) as by_lift:
        verify_lift(all_pairs_zero_system(), {}, 2)
    assert str(by_hh2.value) == str(by_lift.value) == str(by_reduce.value)
    assert len(FiniteDimAlgebra(all_pairs_zero_system()).table) == 5
    monkeypatch.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 1)
    with pytest.raises(NonTerminating) as by_table:
        FiniteDimAlgebra(all_pairs_zero_system()).table
    assert str(by_table.value) == "no normal form within 1 letters"
    monkeypatch.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 3)
    square = all_pairs_zero_system()
    assert all(amb.is_monomial(square)
               for amb in enumerate_ambiguities(square))
    assert hh2(FiniteDimAlgebra(square)).to_doc() == dims


def _exact(terms):
    return [(k, c, type(c)) for k, c in terms.items()]


def test_normal_forms_equal_reduce_exactly():
    systems = [system_for(*args) for args in (
        ("EX1", EX1_BP1), ("EX1", None), ("DBL", None), ("LOC_3", None),
        ("ANNULUS", None), ("TORUS", None), ("ANN2", None))]
    systems.append(half_unit_shift_system())
    assert any(type(c) is F for rule in systems[-1].rules
               for c in rule.rhs.values())
    for sys in systems:
        q = sys.quiver
        keys = [(q.arrows[word[-1]][0], word)
                for word in _composable_words(q, 6)]
        for key in keys:
            sys.normal_form(key)
        # every memo entry, that is every path asked about
        for key in list(sys._memo):
            steps = []
            expected = reduce(sys, {key: 1}, trace=steps)
            assert _exact(sys.normal_form(key)) == _exact(expected), key
            assert sys.steps(key) == steps, key
            assert [type(step[0]) for step in sys.steps(key)] == \
                [type(step[0]) for step in steps]


def test_ambiguities_are_enumerated_once_per_system():
    sys = system_for("EX1", EX1_BP1)
    assert enumerate_ambiguities(sys) is enumerate_ambiguities(sys)


# -- bases ----------------------------------------------------------------------

def test_ex1_basis_both_bipartitions():
    alg1 = FiniteDimAlgebra(system_for("EX1", EX1_BP1))
    assert set(alg1.basis) == {
        ("a|d", ()), ("b|g", ()),
        ("a|d", ("a",)), ("b|g", ("b",)), ("b|g", ("b", "b")),
        ("b|g", ("g",)), ("a|d", ("d",)),
    }
    alg2 = FiniteDimAlgebra(system_for("EX1"))
    assert set(alg2.basis) == {
        ("a|d", ()), ("b|g", ()),
        ("b|g", ("b",)), ("b|g", ("g",)), ("a|d", ("d",)),
        ("b|g", ("d", "g")), ("a|d", ("g", "d")),
    }
    assert alg1.dim == alg2.dim == 7


def test_fixture_dimensions_match_multiplicity_sum():
    for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2"):
        g = graph(name)
        alg = FiniteDimAlgebra(system_for(name))
        assert alg.dim == g.dimension_sum(), name
    for m in range(1, 6):
        alg = FiniteDimAlgebra(system_for(f"LOC_{m}"))
        assert alg.dim == m + 1


def test_basis_order_is_breadth_first():
    alg = FiniteDimAlgebra(system_for("LOC_3"))
    words = [k[1] for k in alg.basis]
    assert sorted(map(len, words)) == [len(w) for w in words]
    assert words[0] == () and all(words[1:])


def test_infinite_dimensional_detected():
    q = two_loop_quiver()
    sys = ReductionSystem(q, [Rule(q.word_key(("x", "y")), {})])
    with pytest.raises(InfiniteDimensional):
        irreducible_words(sys)


def test_mult_table_matches_reduce():
    sys = system_for("EX1", EX1_BP1)
    alg = FiniteDimAlgebra(sys)
    q = sys.quiver
    i = alg.index[("b|g", ("g",))]
    j = alg.index[("a|d", ("d",))]
    # g * d is the tip of the first rule, normal form a
    assert alg.table[(i, j)] == {alg.index[("a|d", ("a",))]: F(1)}
    assert (j, j) not in alg.table


def test_mult_table_is_built_on_first_read():
    sys = system_for("DBL")
    alg = FiniteDimAlgebra(sys)
    hh2(alg)
    assert alg._table is None  # HH^2 reads the basis only
    table = alg.table
    assert alg.table is table
    q = sys.quiver
    for i, ki in enumerate(alg.basis):
        for j, kj in enumerate(alg.basis):
            nf = reduce(sys, multiply(q, {ki: 1}, {kj: 1}))
            assert table.get((i, j), {}) == {
                alg.index[k]: c for k, c in nf.items()}


def reference_table(alg):
    """The table with every composable product reduced through the memo,
    those with an idempotent factor too."""
    q, nf = alg.quiver, alg.system.normal_form
    table = {}
    for i, ki in enumerate(alg.basis):
        for j, kj in alg.ending_at[ki[0]]:
            row = {alg.index[k]: c for k, c in nf(q.concat_key(ki, kj)).items()}
            if row:
                table[(i, j)] = row
    return table


def table_entries(table):
    """The table as a list in its own order, each row in its own order and
    each value with its type."""
    return [(ij, [(k, type(c), c) for k, c in row.items()])
            for ij, row in table.items()]


def test_idempotent_rows_are_the_reduced_products():
    algebras = [(name, FiniteDimAlgebra(system_for(name))) for name in NAMED]
    for label, doc in generated_family():
        g = parse_ribbon_graph(doc)
        system = reduction_system(g)
        algebras.append((label, FiniteDimAlgebra(system)))
        if len(g.edges) < 2:
            continue
        for s in standard_cocycles(g, system):
            try:
                algebras.append(((label, s.label),
                                 deformed_algebra(system, s.cochain)))
            except NonAssociative:
                continue
    for label, alg in algebras:
        assert table_entries(alg.table) \
            == table_entries(reference_table(alg)), label
    assert len(algebras) >= 100


def test_mult_table_associativity():
    for name in ("EX1", "DBL", "ANN2"):
        alg = FiniteDimAlgebra(system_for(name))
        assert alg.check_associative()


def test_idempotents_sum_to_unit():
    alg = FiniteDimAlgebra(system_for("DBL"))
    unit = [F(0)] * alg.dim
    for v in alg.quiver.vertices:
        unit[alg.index[(v, ())]] = F(1)
    for i in range(alg.dim):
        b = [F(0)] * alg.dim
        b[i] = F(1)
        assert alg.multiply_coords(unit, b) == b
        assert alg.multiply_coords(b, unit) == b
