"""End-to-end gate: one test per shipped guarantee, run with -v for a
one-line verdict each.

The third criterion pins the originally reported target values for every
bundled system.  Two of those targets (TORUS, ANN2) disagree with what this
engine computes; the computed values are cross-checked by an independent
complex and the discrepancy is documented in the README.  The assertion
keeps the original targets, so that line stays red on purpose.
"""

import random
from fractions import Fraction

import test_properties as props
from loaders import algebra, generated_family, graph, system_for
from oracles import FormalCtx, cochain_sum, deform, verify_formal

from bga.deform import deformed_algebra, semisimplicity, verify_lift
from bga.hochschild import (
    cochain_space,
    coboundary_image,
    hh2,
    standard_cocycles,
    verify_basis,
)
from bga.linalg import residual, rref
from bga.paths import Quiver
from bga.presentation import reduction_system
from bga.rewrite import (
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    check_diamond,
)
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

F = Fraction

EX1_SWAPPED = Bipartition({"w"}, {"v1", "v2"})


def family_graphs():
    for label, doc in generated_family():
        yield label, parse_ribbon_graph(doc)


def test_criterion_1_dimension_formula():
    cases = [("EX1", graph("EX1")), ("DBL", graph("DBL"))]
    cases += [(f"LOC_{m}", graph(f"LOC_{m}")) for m in range(1, 6)]
    cases += list(family_graphs())
    assert len(cases) >= 27
    for label, g in cases:
        sys_ = reduction_system(g)
        alg = FiniteDimAlgebra(sys_)
        assert alg.dim == g.dimension_sum(), \
            f"{label}: basis {alg.dim} != formula {g.dimension_sum()}"


def test_criterion_2_diamond_condition():
    assert check_diamond(system_for("EX1")).confluent
    assert check_diamond(system_for("EX1", EX1_SWAPPED)).confluent
    for label, g in family_graphs():
        sys_ = reduction_system(g)
        assert check_diamond(sys_).confluent, label
    q = Quiver(vertices=["1"], arrows={"x": ("1", "1"), "y": ("1", "1")})
    planted = ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), {("1", ()): 1}),
        Rule(q.word_key(("y", "x")), {}),
    ])
    report = check_diamond(planted)
    assert not report.confluent
    assert report.failures[0][0].word == ("x", "y", "x")


def test_criterion_3_hh2_reproduction():
    results = []  # (label, target, computed, formula note)
    for m in range(1, 6):
        rep = hh2(algebra(f"LOC_{m}"), graph=graph(f"LOC_{m}"))
        results.append((f"LOC_{m}", m, rep.hh2_dim, rep.formula_matches))
    for name, target in (("ANNULUS", 5), ("TORUS", 6), ("ANN2", 3)):
        rep = hh2(algebra(name))
        results.append((name, target, rep.hh2_dim, None))
    for name, target in (("EX1", 2), ("DBL", 6)):
        rep = hh2(algebra(name), graph=graph(name))
        results.append((name, target, rep.hh2_dim, rep.formula_matches))
        assert rep.formula == target and rep.formula_matches, name
    lines = [
        f"{label}: target {target}, computed {got}"
        + ("" if ok in (True, None) else ", formula mismatch")
        for label, target, got, ok in results
    ]
    mismatched = [r for r in results if r[1] != r[2] or r[3] is False]
    assert not mismatched, (
        "second-cohomology targets not all reproduced:\n  "
        + "\n  ".join(lines)
        + "\nThe TORUS and ANN2 computed values are confirmed by an "
        "independent complex; see README (Known deviations)."
    )


def test_criterion_4_annulus_coboundary_characterization():
    alg = algebra("ANNULUS")
    coords = cochain_space(alg)
    # rule 0 is the commutation rule; rules 1 and 2 are the vanishing
    # squares; each has the four parallels e, x, y, yx in basis order
    kappa = coords.index((0, ("x|y", ("y", "x"))))
    mu = [coords.index((1, ("x|y", w)))
          for w in [(), ("x",), ("y",), ("y", "x")]]
    nu = [coords.index((2, ("x|y", w)))
          for w in [(), ("x",), ("y",), ("y", "x")]]
    red, piv = rref(coboundary_image(alg, coords))
    must_vanish = {kappa, mu[0], mu[2], nu[0], nu[1]}
    free = {mu[1], mu[3], nu[2], nu[3]}
    rng = random.Random(61)
    for trial in range(200):
        vec = {}
        for i in [kappa, *mu, *nu]:
            vec[i] = F(rng.randint(-3, 3))
        is_coboundary = not residual(red, piv, vec)
        expected = all(vec[i] == 0 for i in must_vanish)
        assert is_coboundary == expected, trial
    # the free axes really do bound, one by one
    for i in sorted(free):
        vec = {i: F(1)}
        assert not residual(red, piv, vec)


def test_criterion_5_standard_basis_everywhere():
    cases = [("EX1", graph("EX1")), ("DBL", graph("DBL"))]
    cases += list(family_graphs())
    checked = 0
    for label, g in cases:
        if len(g.edges) == 1:
            continue  # local algebras carry no standard family
        sys_ = reduction_system(g, bipartition(g))
        alg = FiniteDimAlgebra(sys_)
        std = standard_cocycles(g, sys_)
        report = verify_basis(hh2(alg), [s.cochain for s in std])
        assert report.all_cocycles, label
        assert report.independent, label
        assert report.count == report.hh2_dim, \
            f"{label}: {report.count} cocycles vs hh2 {report.hh2_dim}"
        checked += 1
    assert checked >= 20


def test_criterion_6_formal_deformations():
    for name in ("EX1", "DBL"):
        g = graph(name)
        alg = algebra(name)
        sys_ = alg.system
        for s in standard_cocycles(g, sys_):
            check = verify_formal(deform(sys_, s.cochain, FormalCtx(4)))
            assert check.passes, (name, s.label)
            check = verify_lift(sys_, s.cochain, 4)
            assert check.passes, (name, s.label)
    g = graph("DBL")
    sys_ = system_for("DBL")
    std = {s.label: s.cochain
           for s in standard_cocycles(g, sys_)}
    pair = cochain_sum(std["D1(w1,w2)"], std["D2(w1,w2)"])
    check = verify_formal(deform(sys_, pair, FormalCtx(4)))
    assert not check.passes
    _amb, _diff, order = check.witness
    assert order == 2
    check = verify_lift(sys_, pair, 4)
    assert not check.passes
    _amb, _diff, order = check.witness
    assert order == 2


def test_criterion_7_semisimple_unit_shift():
    for name in ("EX1", "DBL"):
        g = graph(name)
        alg = algebra(name)
        sys_ = alg.system
        assert semisimplicity(alg).radical_dim > 0, name
        shift = standard_cocycles(g, sys_)[0]
        assert shift.kind == "A"
        dalg = deformed_algebra(sys_, shift.cochain)
        report = semisimplicity(dalg)
        assert report.radical_dim == 0, name
        assert dalg.dim == g.dimension_sum(), name


def test_criterion_8_randomized_properties():
    props.test_reduce_is_idempotent()
    props.test_reduce_strategy_independent()
    props.test_multiplication_tables_associative()
    props.test_differentials_compose_to_zero()
    props.test_coboundaries_lie_in_cocycle_space()
    props.test_hh2_invariant_under_bipartition_swap()
