"""The associativity check against the all-triples and the
generator-triple oracles.

``check_associative`` resolves the overlaps of the t = 1 system only;
when one fails, its failure scan names the first failing triple among the
composable basis triples.  ``oracles.check_all_triples`` visits every basis
triple, and ``oracles.check_generator_triples`` the triples of two basis
paths and an arrow, from the whole table.  They must agree on the outcome,
and on a failure raise the same NonAssociative message, whose coordinate
vectors must also be the dense ``multiply_coords`` products.  A work guard
checks that the overlap check and ``semisimplicity`` build no table, and a
product count that ``semisimplicity`` takes a quarter of the composable
basis pairs at most.  The lemma behind the
generator-triple oracle's restriction (a triple with an idempotent in it
always holds) and the table the failure scan reads (NF(b_i * b_j) for
every ordered pair, a pair absent exactly when its product is 0) are
tested straight from ``alg.table`` on the same t = 1 algebras.
"""

import hashlib
import json
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st
from loaders import (
    NAMED,
    even_cycle_doc,
    generated_family,
    graph,
    star_doc,
    system_for,
)
from oracles import (add, check_all_triples, check_generator_triples,
                     cochain_sum, multiply, times)
from test_cocycle_oracle import bipartite_graphs
from test_corpus import Corpus, inputs
from test_deform import corpus_cochains

from bga.cli import main
from bga.deform import deformed_algebra, semisimplicity
from bga.errors import (
    NonAssociative,
    NonParallelCochain,
    NonTerminating,
    SchemaError,
)
from bga.fixtures import fixture_doc, fixture_rules
from bga.hochschild import standard_cocycles
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import (
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    check_cochain,
    irreducible_words,
    reduce,
)
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

F = Fraction
MAX_DIM = 40


def _setups():
    """(label, graph, bipartition or None, system) for every fixture."""
    docs = [(n, fixture_doc(n)) for n in ("EX1", "DBL", "ANNULUS", "TORUS",
                                          "ANN2")]
    docs += [(f"LOC_{m}", fixture_doc(f"LOC_{m}")) for m in range(1, 6)]
    docs += generated_family()
    out = []
    for label, doc in docs:
        g = parse_ribbon_graph(doc)
        rules = fixture_rules(label)
        if rules:
            out.append((label, g, None,
                        rules_from_doc(quiver_from_graph(g), json.loads(rules))))
            continue
        bps = [bipartition(g)]
        if label == "EX1":
            bps.append(Bipartition({"w"}, {"v1", "v2"}))
        for bp in bps:
            out.append((label, g, bp,
                        reduction_system(g, bp)))
    return [s for s in out if len(irreducible_words(s[3])) <= MAX_DIM]


SETUPS = _setups()


def _family(g, bp, system):
    if bp is None or len(g.edges) < 2:
        return []
    return [s.cochain for s in standard_cocycles(g, system)]


SMALL = [(label, system, _family(g, bp, system))
         for label, g, bp, system in SETUPS
         if len(irreducible_words(system)) <= 20]


def at_one(system, cochain):
    """Unchecked t = 1 algebra of the rules phi(s) + psi(s)."""
    rules = [Rule(r.tip, add(r.rhs, cochain.get(ri, {})))
             for ri, r in enumerate(system.rules)]
    s1 = ReductionSystem(system.quiver, rules)
    return FiniteDimAlgebra(s1)


def outcome(check):
    try:
        return check()
    except NonAssociative as exc:
        return str(exc)


def assert_agree(alg, label):
    fast = outcome(alg.check_associative)
    full = outcome(lambda: check_all_triples(alg))
    assert fast == full, label
    if full is True:
        return True
    i, j, k = map(int, re.match(r"triple (\d+),(\d+),(\d+):", full).groups())
    e = [[F(int(m == n)) for m in range(alg.dim)] for n in (i, j, k)]
    lhs = alg.multiply_coords(alg.multiply_coords(e[0], e[1]), e[2])
    rhs = alg.multiply_coords(e[0], alg.multiply_coords(e[1], e[2]))
    assert full == f"triple {i},{j},{k}: {lhs} != {rhs}", label
    return False


def test_setups_reach_the_dimension_cap():
    dims = sorted(len(irreducible_words(s[3])) for s in SETUPS)
    assert len(SETUPS) >= 20 and dims[-1] == MAX_DIM


def t1_algebras():
    """((label, cocycle label), t = 1 algebra) for every fixture with a
    standard family and every cocycle in it."""
    for label, g, bp, system in SETUPS:
        if bp is None or len(g.edges) < 2:
            continue
        for s in standard_cocycles(g, system):
            yield (label, s.label), at_one(system, s.cochain)


def test_fixtures_and_standard_cocycles_agree_with_oracle():
    for label, _g, _bp, system in SETUPS:
        assert assert_agree(FiniteDimAlgebra(system), label)
    cases = 0
    for label, alg in t1_algebras():
        assert_agree(alg, label)
        cases += 1
    assert cases >= 60


def assert_idempotent_triples_hold(alg, label):
    """(xy)g = x(yg) whenever x, y or the generator g is an idempotent."""
    table = alg.table
    idx = range(alg.dim)
    idem = [n for n in idx if not alg.basis[n][1]]
    gens = [n for n in idx if len(alg.basis[n][1]) <= 1]
    triples = ([(e, y, g) for e in idem for y in idx for g in gens]
               + [(x, e, g) for x in idx for e in idem for g in gens]
               + [(x, y, e) for x in idx for y in idx for e in idem])
    for i, j, k in triples:
        x, y, g = {i: 1}, {j: 1}, {k: 1}
        assert (times(table, times(table, x, y), g)
                == times(table, x, times(table, y, g))), (label, i, j, k)


def assert_table_is_reduce(alg, label):
    """``table`` holds NF(b_i * b_j) for every ordered pair with a nonzero
    product, and no other pair, in (i, j)-lexicographic order."""
    q = alg.quiver
    expected = {}
    for i, ki in enumerate(alg.basis):
        for j, kj in enumerate(alg.basis):
            nf = reduce(alg.system, multiply(q, {ki: 1}, {kj: 1}))
            if nf:
                expected[(i, j)] = {alg.index[k]: c
                                    for k, c in nf.items()}
    assert alg.table == expected, label
    assert list(alg.table) == sorted(alg.table), label


def test_t1_tables_are_reduce_and_hold_on_idempotent_triples():
    for label, alg in t1_algebras():
        assert_table_is_reduce(alg, label)
        assert_idempotent_triples_hold(alg, label)


@st.composite
def parallel_cochains(draw):
    """A fixture system and a parallel 2-cochain, cocycle or not.

    A rational combination of standard cocycles plus random noise; noise
    words are shorter than their tip, so the t = 1 rules still terminate.
    """
    label, system, family = draw(st.sampled_from(SMALL))
    alg = FiniteDimAlgebra(system)
    q = system.quiver
    cochain = {}
    for value in family:
        c = F(draw(st.integers(-2, 2)))
        cochain = cochain_sum(cochain, value, c)
    for ri, rule in enumerate(system.rules):
        if not draw(st.booleans()):
            continue
        par = [k for _, k in alg.ending_at[q.path_target(rule.tip)]
               if k[0] == rule.tip[0] and len(k[1]) < len(rule.tip[1])]
        keys = draw(st.lists(st.sampled_from(par), max_size=3, unique=True)) \
            if par else []
        cochain = cochain_sum(cochain, {ri: {
            k: F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
            for k in keys}})
    return label, system, cochain


@settings(max_examples=150, deadline=None)
@given(parallel_cochains())
def test_random_parallel_cochains_agree_with_oracle(case):
    label, system, cochain = case
    assert_agree(at_one(system, cochain), label)


@settings(max_examples=60, deadline=None)
@given(parallel_cochains())
def test_random_t1_tables_are_reduce_and_hold_on_idempotent_triples(case):
    label, system, cochain = case
    alg = at_one(system, cochain)
    assert_table_is_reduce(alg, label)
    assert_idempotent_triples_hold(alg, label)


def test_known_non_cocycle_fails_both_checks():
    label, system, _family = next(s for s in SMALL if s[0] == "ANNULUS")
    assert not assert_agree(at_one(system, {0: {("x|y", ()): 1}}), label)
    assert assert_agree(at_one(system, {}), label)


def test_a_failure_with_a_zero_first_product_is_found():
    # at t = 1 the annulus rule x*y -> y*x + y breaks associativity on one
    # generator triple only, (x, x, y): x*x = 0 but x*(x*y) = y + 2 y*x, so
    # the skip must ask for y*g = 0 as well as x*y = 0
    label, system, _family = next(s for s in SMALL if s[0] == "ANNULUS")
    q = system.quiver
    alg = at_one(system, {0: {q.key("x|y", ("y",)): 1}})
    x, y = alg.index[("x|y", ("x",))], alg.index[("x|y", ("y",))]
    assert (x, x) not in alg.table and (x, y) in alg.table
    assert not assert_agree(alg, label)
    assert outcome(alg.check_associative) == (
        f"triple {x},{x},{y}: {[F(0)] * 4} != {[F(0), F(0), F(1), F(2)]}")


# the message of the all-triples scan on the case below: triple 64,66,320
CYCLE64_MESSAGE_SHA256 = (
    "5fe4ad3045ce77eb5dc4dd50276bade977b1c3ce408b2d4aaecb9111a30a16eb")


def test_a_failure_at_dimension_512_is_named_quickly():
    # the 64-cycle with every multiplicity 2 has dimension 512; its first
    # (a) rule deformed by its origin idempotent fails at t = 1, and the
    # failure path visits the composable triples only, not all 512^3
    g = parse_ribbon_graph(even_cycle_doc(32, [2] * 64))
    system = reduction_system(g, bipartition(g))
    ri = next(i for i, r in enumerate(system.rules) if r.info[0] == "a")
    origin = system.rules[ri].tip[0]
    start = time.perf_counter()
    with pytest.raises(NonAssociative) as exc:
        deformed_algebra(system, {ri: {(origin, ()): 1}})
    assert time.perf_counter() - start < 5
    assert len(irreducible_words(system)) == 512
    message = str(exc.value)
    assert message.startswith("triple 64,66,320: ")
    assert hashlib.sha256(message.encode()).hexdigest() \
        == CYCLE64_MESSAGE_SHA256


# -- the overlaps decide ----------------------------------------------------

def verdict(check):
    """True, or the type and text of what ``check`` raised."""
    try:
        return check()
    except (NonAssociative, NonTerminating) as exc:
        return type(exc).__name__, str(exc)


def overlap_verdict(system, cochain, label):
    """The verdict of ``check_associative`` on the t = 1 system, after
    checking that the generator-triple oracle, on a second t = 1 system
    with its own memo, gives the same one."""
    fast = verdict(lambda: FiniteDimAlgebra(
        system.with_values(cochain)).check_associative())
    full = verdict(lambda: check_generator_triples(
        FiniteDimAlgebra(system.with_values(cochain))))
    assert fast == full, label
    return fast[0] if isinstance(fast, tuple) else "holds"


def test_overlaps_decide_on_the_corpus_cochains(tmp_path):
    seen = []
    for label, system, cochain in corpus_cochains(tmp_path):
        try:
            check_cochain(system, cochain)
        except (NonParallelCochain, SchemaError):
            continue
        seen.append(overlap_verdict(system, cochain, label))
    assert seen.count("holds") >= 20 and seen.count("NonAssociative") >= 200
    assert seen.count("NonTerminating") >= 1


def family_setups():
    """(label, graph, system) of every fixture with derived rules, EX1
    under both bipartitions and ``generated_family()``."""
    out = [(name, graph(name), system_for(name)) for name in NAMED]
    out.append(("EX1~swapped", graph("EX1"),
                system_for("EX1", Bipartition({"w"}, {"v1", "v2"}))))
    for label, doc in generated_family():
        g = parse_ribbon_graph(doc)
        out.append((label, g, reduction_system(g)))
    return [(label, g, system) for label, g, system in out
            if len(g.edges) >= 2 and not fixture_rules(label)]


def test_overlaps_decide_on_every_standard_cocycle():
    seen = []
    for label, g, system in family_setups():
        for s in standard_cocycles(g, system):
            seen.append(overlap_verdict(system, s.cochain, (label, s.label)))
    assert len(seen) >= 100 and set(seen) == {"holds"}
    # a sum of cocycles need not deform to an algebra at t = 1
    for label, g, system in family_setups():
        family = [s.cochain for s in standard_cocycles(g, system)]
        for a, b in combinations(family, 2):
            seen.append(overlap_verdict(system, cochain_sum(a, b), label))
    assert seen.count("NonAssociative") >= 20


@st.composite
def drawn_cochains(draw):
    """A drawn bipartite graph, its system and a parallel cochain: an
    integer combination of its standard cocycles plus, on some rules, basis
    paths shorter than the tip."""
    g = parse_ribbon_graph(draw(bipartite_graphs()))
    system = reduction_system(g)
    alg = FiniteDimAlgebra(system)
    assume(alg.dim <= MAX_DIM)
    q = system.quiver
    cochain = {}
    if len(g.edges) >= 2:
        for s in standard_cocycles(g, system):
            c = draw(st.integers(-1, 2))
            if c:
                cochain = cochain_sum(cochain, s.cochain, c)
    for ri, rule in enumerate(system.rules):
        par = [k for _, k in alg.ending_at[q.path_target(rule.tip)]
               if k[0] == rule.tip[0] and len(k[1]) < len(rule.tip[1])]
        if par and draw(st.integers(0, 3)) == 0:
            k = draw(st.sampled_from(par))
            cochain = cochain_sum(cochain, {ri: {k: draw(st.sampled_from(
                (1, -1, F(1, 2))))}})
    return system, cochain


@settings(max_examples=60, deadline=None)
@given(drawn_cochains())
def test_overlaps_decide_on_drawn_graphs(case):
    system, cochain = case
    overlap_verdict(system, cochain, "drawn")


def test_a_failing_overlap_with_no_failing_triple_is_an_error(monkeypatch):
    label, system, _family = next(s for s in SMALL if s[0] == "ANNULUS")
    q = system.quiver
    alg = at_one(system, {0: {q.key("x|y", ("y",)): 1}})
    monkeypatch.setattr(FiniteDimAlgebra, "_first_failure", lambda self: None)
    with pytest.raises(RuntimeError) as err:
        alg.check_associative()
    assert str(err.value) == "overlap x*x*y fails, but no basis triple does"


def test_deform_at_one_builds_the_table_only_where_it_is_read(
        monkeypatch, capsys, tmp_path):
    built = []
    table = FiniteDimAlgebra.table

    def counted(self):
        if self._table is None:
            built.append(self)
        return table.fget(self)

    monkeypatch.setattr(FiniteDimAlgebra, "table", property(counted))
    runs = 0
    for label, argv, _source in inputs(Corpus(tmp_path)):
        for kind in ("A", "B", "C", "D1", "D2"):
            run = ["deform", *argv, "--deform-type", kind, "--t", "1"]
            if main(run) != 0:
                continue
            assert main(run + ["--check-semisimple"]) == 0
            assert built == [], (label, kind)
            runs += 1
    capsys.readouterr()
    assert runs >= 40
    # a failure names its triple from the table, built once
    cochain = tmp_path / "cochain.json"
    cochain.write_text(json.dumps({"values": [{"tip": ["x", "y"], "element": [
        {"vertex": "x|y", "word": ["y"], "coeff": "1"}]}]}))
    assert main(["deform", "--input", "ANNULUS", "--deform-type", "custom",
                 "--cochain", str(cochain), "--t", "1"]) == 1
    assert "triple" in capsys.readouterr().out and len(built) == 1


def test_semisimplicity_takes_a_fraction_of_the_composable_products(
        monkeypatch):
    g = parse_ribbon_graph(star_doc(16, [3] + [2] * 16))
    system = reduction_system(g)
    a = next(s for s in standard_cocycles(g, system) if s.kind == "A")
    alg = deformed_algebra(system, a.cochain)
    pairs = sum(len(alg.ending_at[k[0]]) for k in alg.basis)
    assert (alg.dim, pairs) == (800, 40000)
    taken = []
    product_of = FiniteDimAlgebra._product_of

    def counted(self):
        product = product_of(self)

        def count(x, y):
            taken.append(None)
            return product(x, y)
        return count

    monkeypatch.setattr(FiniteDimAlgebra, "_product_of", counted)
    report = semisimplicity(alg)
    assert (report.semisimple, report.gram_rank) == (True, 800)
    assert 0 < len(taken) <= pairs // 4
    assert alg._table is None
