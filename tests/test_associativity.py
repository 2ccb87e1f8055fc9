"""The generator-triple associativity check against the all-triples oracle.

``check_generator_triples`` visits only (x, y, g) with g an idempotent or an
arrow; ``check_associative`` visits every basis triple.  Both must agree on
the outcome, and on a failure raise the same NonAssociative message, whose
coordinate vectors must also be the dense ``multiply_coords`` products.
"""

import json
import re
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bga.errors import NonAssociative
from bga.fixtures import fixture_doc, fixture_rules, generated_family
from bga.hochschild import parallel_paths, standard_cocycles
from bga.paths import Element
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import (
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    irreducible_basis,
    irreducible_words,
)
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

F = Fraction
MAX_DIM = 40


def _setups():
    """(label, graph, bipartition or None, system) for every fixture."""
    docs = [(n, fixture_doc(n)) for n in ("EX1", "DBL", "ANNULUS", "TORUS",
                                          "ANN2")]
    docs += [(f"LOC_{m}", fixture_doc("LOC", m=m)) for m in range(1, 6)]
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
    if bp is None or len(g.edge_ids()) < 2:
        return []
    return [s.cochain for s in standard_cocycles(g, bp, system)]


SMALL = [(label, system, _family(g, bp, system))
         for label, g, bp, system in SETUPS
         if len(irreducible_words(system)) <= 20]


def at_one(system, cochain):
    """Unchecked t = 1 algebra of the rules phi(s) + psi(s)."""
    rules = [Rule(r.tip, r.rhs + cochain[ri] if ri in cochain else r.rhs)
             for ri, r in enumerate(system.rules)]
    s1 = ReductionSystem(system.quiver, rules)
    return FiniteDimAlgebra(s1, irreducible_words(s1))


def outcome(check):
    try:
        return check()
    except NonAssociative as exc:
        return str(exc)


def assert_agree(alg, label):
    fast = outcome(alg.check_generator_triples)
    full = outcome(alg.check_associative)
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


def test_fixtures_and_standard_cocycles_agree_with_oracle():
    cases = 0
    for label, g, bp, system in SETUPS:
        assert assert_agree(irreducible_basis(system), label)
        if bp is None or len(g.edge_ids()) < 2:
            continue
        for s in standard_cocycles(g, bp, system):
            assert_agree(at_one(system, s.cochain), (label, s.label))
            cases += 1
    assert cases >= 60


def add(a, b):
    out = dict(a)
    for ri, el in b.items():
        out[ri] = out[ri] + el if ri in out else el
    return out


@st.composite
def parallel_cochains(draw):
    """A fixture system and a parallel 2-cochain, cocycle or not.

    A rational combination of standard cocycles plus random noise; noise
    words are shorter than their tip, so the t = 1 rules still terminate.
    """
    label, system, family = draw(st.sampled_from(SMALL))
    alg = irreducible_basis(system)
    q = system.quiver
    cochain = {}
    for value in family:
        c = F(draw(st.integers(-2, 2)))
        cochain = add(cochain, {ri: el.scaled(c) for ri, el in value.items()})
    for ri, rule in enumerate(system.rules):
        if not draw(st.booleans()):
            continue
        par = [k for k in parallel_paths(alg).get(
                   (rule.tip[0], q.path_target(rule.tip)), [])
               if len(k[1]) < len(rule.tip[1])]
        keys = draw(st.lists(st.sampled_from(par), max_size=3, unique=True)) \
            if par else []
        cochain = add(cochain, {ri: Element(q, {
            k: F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
            for k in keys})})
    return label, system, cochain


@settings(max_examples=150, deadline=None)
@given(parallel_cochains())
def test_random_parallel_cochains_agree_with_oracle(case):
    label, system, cochain = case
    assert_agree(at_one(system, cochain), label)


def test_known_non_cocycle_fails_both_checks():
    label, system, _family = next(s for s in SMALL if s[0] == "ANNULUS")
    q = system.quiver
    assert not assert_agree(at_one(system, {0: Element.idempotent(q, "x|y")}),
                            label)
    assert assert_agree(at_one(system, {}), label)
