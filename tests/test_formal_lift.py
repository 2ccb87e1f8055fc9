"""The traced formal lift check against the deformed-system oracle.

``verify_lift`` decides ``deform --t formal:D`` from traced reductions in
the base system, one rational term dict per power of t.  The oracle
``verify_formal(deform(s, c, FormalCtx(D)))``, from ``oracles``, resolves
every overlap of the system deformed over ``TruncPoly`` coefficients.  The
two must agree on the verdict, the ambiguity count, the witness word, the
rendered difference and its order, at D in {1, 2, 3, 4, 6}, on

* every fixture system (ANNULUS, TORUS and ANN2 with their bundled rules)
  and every ``generated_family()`` graph, with the standard cocycles, the
  sums D1 + D2, the HH^2 representatives and random parallel cochains;
* the broken ANNULUS rules, whose overlaps already fail at order 0;
* hypothesis-drawn bipartite graphs and cochains.

The command line decides the formal case without a deformed system.
"""

import json
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from oracles import FormalCtx, cochain_sum, deform, verify_formal
from test_cocycle_membership import GRAPHS
from test_cocycle_oracle import SYSTEMS, bipartite_graphs

from bga import rewrite
from bga.cli import main
from bga.deform import verify_lift
from bga.errors import SchemaError
from bga.fixtures import fixture_doc
from bga.hochschild import (
    cochain_from_vector,
    cochain_space,
    hh2,
    standard_cocycles,
)
from bga.paths import render, render_key
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import FiniteDimAlgebra
from bga.ribbon import bipartition, parse_ribbon_graph

DEGREES = (1, 2, 3, 4, 6)


def outcome(check):
    witness = None
    if check.witness is not None:
        amb, diff, order = check.witness
        witness = (amb.word, render(diff), order)
    return check.passes, check.n_ambiguities, witness, check.describe()


def agree(system, cochain, degree):
    """Both checks of one cochain at one degree; returns the verdict."""
    traced = outcome(verify_lift(system, cochain, degree))
    assert traced == outcome(verify_formal(
        deform(system, cochain, FormalCtx(degree))))
    return traced[0]


def standard_family(label, system):
    """Standard cocycles plus each D1 + D2 sum, when the system has them."""
    if label not in GRAPHS:
        return []
    g = parse_ribbon_graph(GRAPHS[label])
    if len(g.edges) == 1:
        return []
    family = standard_cocycles(g, system)
    d2 = {s.label[2:]: s.cochain for s in family if s.kind == "D2"}
    sums = [cochain_sum(s.cochain, d2[s.label[2:]])
            for s in family if s.kind == "D1"]
    return [s.cochain for s in family] + sums


def test_traced_check_matches_the_oracle_on_fixtures():
    rng = random.Random(9)
    verdicts = {True: 0, False: 0}
    for label, system, alg in SYSTEMS:
        report = hh2(alg)
        cochains = [{}] + standard_family(label, system)
        cochains += [cochain_from_vector(report.coords, v)
                     for v in report.representatives]
        for _ in range(3):
            vec = {rng.randrange(report.cochain_dim):
                   rng.choice((-2, -1, 1, 3))
                   for _ in range(rng.randint(1, 3))}
            cochains.append(cochain_from_vector(report.coords, vec))
        for cochain in cochains:
            for degree in DEGREES:
                verdicts[agree(system, cochain, degree)] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_sum_of_bigon_cocycles_fails_at_order_two():
    (label, system, _), = [s for s in SYSTEMS if s[0] == "DBL"]
    sums = standard_family(label, system)[-2:]
    for cochain in sums:
        check = verify_lift(system, cochain, 4)
        assert not check.passes and check.witness[2] == 2
        assert agree(system, cochain, 4) is False


def test_large_degrees_cost_no_more_than_the_last_nonzero_order(capsys):
    # the standard cocycles' Psi is nilpotent, so every order past a few
    # is 0 and the check stops there, at any truncation degree
    start = time.perf_counter()
    code = main(["deform", "--input", "DBL", "--deform-type", "A",
                 "--t", "formal:10000000"])
    elapsed = time.perf_counter() - start
    assert (code, json.loads(capsys.readouterr().out)["passes"]) == (0, True)
    assert elapsed < 1.0
    # a failing sum renders the witness the oracle renders at degree 40
    (label, system, _), = [s for s in SYSTEMS if s[0] == "DBL"]
    for cochain in standard_family(label, system)[-2:]:
        assert agree(system, cochain, 40) is False
        assert outcome(verify_lift(system, cochain, 10 ** 7)) == \
            outcome(verify_lift(system, cochain, 40))


def test_one_check_reads_each_path_trace_once(monkeypatch):
    # Psi and the lifts are memoised per path, so within one verify_lift
    # call no path's reduce steps are read twice
    reads = Counter()
    steps = rewrite.ReductionSystem.steps

    def counting_steps(self, key):
        reads[key] += 1
        return steps(self, key)

    monkeypatch.setattr(rewrite.ReductionSystem, "steps", counting_steps)
    (label, system, _), = [s for s in SYSTEMS if s[0] == "DBL"]
    family = standard_family(label, system)
    standard, failing = family[:-2], family[-1]
    for cochain in standard + [failing]:
        reads.clear()
        check = verify_lift(system, cochain, 4)
        assert check.passes is (cochain is not failing)
        assert reads and max(reads.values()) == 1


def test_non_nilpotent_psi_matches_the_oracle():
    # Psi is not nilpotent on this cochain's words: one overlap's chain
    # carries a word that grows by a letter per order
    (_, system, alg), = [s for s in SYSTEMS if s[0] == "ANN2"]
    report = hh2(alg)
    cochain = cochain_from_vector(report.coords, {11: 1, 8: 1})
    assert {render_key(system.rules[ri].tip): render(value)
            for ri, value in cochain.items()} == \
        {"a1*a1": "bq*a2", "a2*bq": "a2*a1*bq"}
    for degree in (8, 32, 200):
        assert agree(system, cochain, degree)


BROKEN_ANNULUS = {"rules": [
    {"tip": ["x", "y"], "rhs": [["1", []]]},
    {"tip": ["y", "x"], "rhs": []},
]}


def test_broken_annulus_fails_at_order_zero():
    g = parse_ribbon_graph(fixture_doc("ANNULUS"))
    q = quiver_from_graph(g)
    system = rules_from_doc(q, BROKEN_ANNULUS)
    cochains = [{}, {0: {("x|y", ()): 1}},
                {1: {q.key("x|y", ("x",)): -2}}]
    for cochain in cochains:
        for degree in DEGREES:
            assert agree(system, cochain, degree) is False
            assert verify_lift(system, cochain, degree).witness[2] == 0


def test_reducible_value_is_refused_at_every_degree():
    # also at degree 1, where t * psi vanishes and the deformed rules are
    # the base ones: a cochain is validated the same way at every degree
    (_, system, _), = [s for s in SYSTEMS if s[0] == "ANNULUS"]
    q = system.quiver
    cochain = {0: {q.key("x|y", ("x", "y")): 1}}
    for degree in (1, 2, 4):
        with pytest.raises(SchemaError) as traced:
            verify_lift(system, cochain, degree)
        with pytest.raises(SchemaError) as oracle:
            deform(system, cochain, FormalCtx(degree))
        assert str(traced.value) == str(oracle.value) == \
            "rhs of x*y is itself reducible"


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs(), st.sampled_from(DEGREES), st.data())
def test_traced_check_matches_the_oracle_on_drawn_cochains(doc, degree, data):
    g = parse_ribbon_graph(doc)
    assume(g.dimension_sum() <= 60 and len(g.edges) > 1)
    system = reduction_system(g, bipartition(g))
    alg = FiniteDimAlgebra(system)
    coords = cochain_space(alg)
    cochain = {}
    for s in standard_cocycles(g, system):
        c = data.draw(st.integers(-2, 2))
        if c:
            cochain = cochain_sum(cochain, s.cochain, c)
    noise = data.draw(st.lists(
        st.tuples(st.integers(0, len(coords) - 1),
                  st.sampled_from((-1, 1, 2))), max_size=2))
    cochain = cochain_sum(cochain, cochain_from_vector(coords,
                                                       dict(noise)))
    event("lifts" if agree(system, cochain, degree) else "obstructed")


def test_formal_deform_builds_no_deformed_system(monkeypatch, capsys):
    built = []
    init = rewrite.ReductionSystem.__init__

    def counting_init(self, quiver, rules):
        built.append(rules)
        init(self, quiver, rules)

    def no_witness_value(*args, **kwargs):
        raise AssertionError("witness built on a passing check")

    monkeypatch.setattr(rewrite.ReductionSystem, "__init__", counting_init)
    monkeypatch.setattr("bga.deform._witness_value", no_witness_value)
    for kind in ("A", "C", "D1", "D2"):
        built.clear()
        code = main(["deform", "--input", "DBL", "--deform-type", kind,
                     "--t", "formal:4"])
        assert (code, json.loads(capsys.readouterr().out)["passes"]) == \
            (0, True)
        assert len(built) == 1
