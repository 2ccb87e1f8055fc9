import json

import pytest
from fractions import Fraction

from oracles import verify_cocycle, zeroth_differential

from bga.errors import NonParallelCochain, NotApplicable, RequiresConfluentSystem
from bga.fixtures import fixture_doc, fixture_rules
from bga.hochschild import (
    cochain_from_vector,
    cochain_space,
    coboundary_image,
    cocycle_space,
    hh2,
    one_cochain_coords,
    standard_cocycles,
    vector_from_cochain,
    verify_basis,
)
from bga.linalg import in_span, kernel_basis, residual, rref
from bga.paths import Element
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import ReductionSystem, Rule, irreducible_basis
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

F = Fraction


def graph(name, **kw):
    return parse_ribbon_graph(fixture_doc(name, **kw))


def system_for(name, bp=None, **kw):
    g = graph(name, **kw)
    if fixture_rules(name):
        return rules_from_doc(quiver_from_graph(g), json.loads(fixture_rules(name)))
    return reduction_system(g, bp)


def setup(name, bp=None, **kw):
    sys_ = system_for(name, bp, **kw)
    alg = irreducible_basis(sys_)
    return sys_, alg


def unit(i):
    return {i: F(1)}


EX1_BP1 = Bipartition({"w"}, {"v1", "v2"})

# A path of two edges u -- v -- w with multiplicities 2, 1, 3: a tree with
# higher powers on both leaves, one leaf on each side of the bipartition.
TREE23 = json.dumps({
    "vertices": [
        {"id": "u", "multiplicity": 2},
        {"id": "v", "multiplicity": 1},
        {"id": "w", "multiplicity": 3},
    ],
    "half_edges": ["p", "q", "r", "s"],
    "incidence": {"p": "u", "q": "v", "r": "v", "s": "w"},
    "pairing": [["p", "q"], ["r", "s"]],
    "rotation": {"u": ["p"], "v": ["q", "r"], "w": ["s"]},
})


# -- coordinates ----------------------------------------------------------------

def test_annulus_cochain_coordinates():
    sys_, alg = setup("ANNULUS")
    coords = cochain_space(sys_, alg)
    # three rules, each with the four loop classes at the single vertex
    words = [(), ("x",), ("y",), ("y", "x")]
    assert coords == [(ri, ("x|y", w)) for ri in range(3) for w in words]


def test_vector_cochain_round_trip():
    sys_, alg = setup("ANNULUS")
    q = sys_.quiver
    coords = cochain_space(sys_, alg)
    vec = {3: F(2), 4: F(-1), 11: F(5)}
    cochain = cochain_from_vector(alg, coords, vec)
    assert vector_from_cochain(sys_, coords, cochain) == vec
    assert cochain[0] == Element.path(q, "x|y", ("y", "x"), F(2))


def test_vector_from_cochain_rejects_reducible_value():
    sys_, alg = setup("ANNULUS")
    coords = cochain_space(sys_, alg)
    bad = {0: Element.path(sys_.quiver, "x|y", ("x", "y"))}
    with pytest.raises(NonParallelCochain):
        vector_from_cochain(sys_, coords, bad)


# -- differentials --------------------------------------------------------------

def test_differentials_compose_to_zero():
    sys_, alg = setup("EX1", EX1_BP1)
    q = sys_.quiver
    phi = {"a|d": Element.path(q, "a|d", ("a",), F(3)),
           "b|g": Element.path(q, "b|g", ("b", "b"), F(-2))
           + Element.idempotent(q, "b|g")}
    psi = zeroth_differential(sys_, phi)
    assert psi
    # d^1 psi, combined from the coboundary image's (arrow, path) vectors
    index = {pair: i for i, pair in enumerate(one_cochain_coords(alg))}
    image = coboundary_image(sys_, alg)
    vec = {}
    for name, value in psi.items():
        for key, c in value.terms.items():
            for j, y in image[index[(name, key)]].items():
                vec[j] = vec.get(j, 0) + c * y
    assert not any(vec.values())


def test_coboundaries_are_cocycles():
    for name in ("EX1", "DBL", "ANNULUS", "ANN2"):
        sys_, alg = setup(name)
        coords, rows = cocycle_space(sys_, alg)
        red, piv = rref(kernel_basis(rows, len(coords)))
        for v in coboundary_image(sys_, alg, coords):
            assert in_span(red, piv, v), name


# -- computed dimensions ----------------------------------------------------------

def dims(report):
    return (report.cochain_dim, report.cocycle_dim, report.coboundary_dim,
            report.hh2_dim)


def test_ex1_dimensions_and_formula():
    g = graph("EX1")
    sys_, alg = setup("EX1")
    rep = hh2(sys_, alg, graph=g)
    assert dims(rep) == (7, 4, 2, 2)
    assert rep.formula == 2 and rep.formula_matches
    sys1, alg1 = setup("EX1", EX1_BP1)
    rep1 = hh2(sys1, alg1, graph=g)
    assert dims(rep1) == (14, 6, 4, 2)
    assert rep1.formula == 2 and rep1.formula_matches


def test_dbl_dimensions_and_formula():
    g = graph("DBL")
    rep = hh2(*setup("DBL"), graph=g)
    assert dims(rep) == (16, 9, 3, 6)
    assert rep.formula == 6 and rep.formula_matches


def test_loc_dimensions_match_multiplicity():
    expected = {1: (2, 2, 1, 1), 2: (12, 6, 4, 2),
                3: (16, 8, 5, 3), 4: (20, 10, 6, 4)}
    for m, d in expected.items():
        g = graph("LOC", m=m)
        rep = hh2(*setup("LOC", m=m), graph=g)
        assert dims(rep) == d, m
        assert rep.formula == m and rep.formula_matches


def test_annulus_dimensions():
    assert dims(hh2(*setup("ANNULUS"))) == (12, 9, 4, 5)


def test_torus_dimensions():
    # regression pin; confirmed against an independent complex
    assert dims(hh2(*setup("TORUS"))) == (28, 10, 8, 2)


def test_ann2_dimensions():
    # regression pin; confirmed against an independent complex
    assert dims(hh2(*setup("ANN2"))) == (12, 7, 3, 4)


def test_requires_confluence():
    q = system_for("ANNULUS").quiver
    broken = ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), Element.idempotent(q, "x|y")),
        Rule(q.word_key(("y", "x")), Element.zero(q)),
    ])
    with pytest.raises(RequiresConfluentSystem):
        hh2(broken, None)


# -- the annulus subspaces, coordinate by coordinate ------------------------------

def test_annulus_cocycles_are_unit_axes():
    sys_, alg = setup("ANNULUS")
    coords, rows = cocycle_space(sys_, alg)
    red, piv = rref(kernel_basis(rows, len(coords)))
    assert piv == list(range(3, 12))
    assert red == [unit(i) for i in piv]


def test_annulus_coboundary_axes():
    # on the nine cocycle axes kappa, mu_1..4, nu_1..4 a cochain bounds
    # exactly when kappa, mu_1, mu_3, nu_1, nu_2 all vanish
    sys_, alg = setup("ANNULUS")
    coords = cochain_space(sys_, alg)
    red, piv = rref(coboundary_image(sys_, alg, coords))
    assert piv == [5, 7, 10, 11]
    assert red == [unit(i) for i in piv]
    kappa, mu, nu = 3, (4, 5, 6, 7), (8, 9, 10, 11)
    bounding = {mu[1], mu[3], nu[2], nu[3]}
    for i in [kappa, *mu, *nu]:
        assert in_span(red, piv, unit(i)) == (i in bounding)


# -- the two-punctured annulus, rule by rule --------------------------------------

def test_ann2_subspaces():
    sys_, alg = setup("ANN2")
    q = sys_.quiver
    coords = cochain_space(sys_, alg)
    assert coords == [
        (0, ("a1|a2", ())), (0, ("a1|a2", ("a1",))),
        (0, ("a1|a2", ("bq", "a2"))), (0, ("a1|a2", ("bq", "a2", "a1"))),
        (1, ("bp|bq", ("bq",))), (1, ("bp|bq", ("a1", "bq"))),
        (2, ("a1|a2", ())), (2, ("a1|a2", ("a1",))),
        (2, ("a1|a2", ("bq", "a2"))), (2, ("a1|a2", ("bq", "a2", "a1"))),
        (3, ("bp|bq", ())), (3, ("bp|bq", ("a2", "a1", "bq"))),
    ]
    redb, pivb = rref(coboundary_image(sys_, alg, coords))
    assert pivb == [7, 9, 11]
    assert redb == [unit(i) for i in pivb]
    coords_c, rows = cocycle_space(sys_, alg)
    assert coords_c == coords
    redc, pivc = rref(kernel_basis(rows, len(coords)))
    assert pivc == [3, 5, 6, 7, 8, 9, 11]
    # the direction supported on rules 1 and 3 jointly: a cocycle that does
    # not bound, invisible to any ansatz that zeroes the redundant rule
    paired = unit(5)
    paired[10] = F(1)
    assert in_span(redc, pivc, paired)
    assert not in_span(redb, pivb, paired)
    cochain = {1: Element.path(q, "bp|bq", ("a1", "bq")),
               3: Element.idempotent(q, "bp|bq")}
    assert verify_cocycle(sys_, cochain)


# -- the named family -------------------------------------------------------------

def test_standard_family_ex1_both_bipartitions():
    g = graph("EX1")
    sys_, alg = setup("EX1", EX1_BP1)
    std = standard_cocycles(g, EX1_BP1, sys_)
    assert [s.label for s in std] == ["A", "B(v2,1)"]
    assert [s.tag for s in std] == ["A", "B"]
    by_tip = {r.tip[1]: i for i, r in enumerate(sys_.rules)}
    q = sys_.quiver
    a, b = std
    assert a.cochain == {
        by_tip[("g", "d")]: Element.idempotent(q, "a|d"),
        by_tip[("d", "g")]: Element.idempotent(q, "b|g"),
        by_tip[("a", "a")]: Element.path(q, "a|d", ("a",), F(-1)),
        by_tip[("b", "b", "b")]: Element.path(q, "b|g", ("b",), F(-1)),
    }
    assert b.cochain == {
        by_tip[("d", "g")]: Element.path(q, "b|g", ("b",)),
        by_tip[("b", "b", "b")]: Element.path(q, "b|g", ("b", "b"), F(-1)),
    }
    bp2 = bipartition(g)
    sys2, alg2 = setup("EX1")
    std2 = standard_cocycles(g, bp2, sys2)
    assert [s.label for s in std2] == ["A", "B(v2,1)"]
    tips2 = {r.tip[1]: i for i, r in enumerate(sys2.rules)}
    assert std2[1].cochain == {
        tips2[("b", "b")]: Element.path(sys2.quiver, "b|g", ("b",))}


def test_standard_family_dbl():
    g = graph("DBL")
    bp = bipartition(g)
    sys_, alg = setup("DBL")
    std = standard_cocycles(g, bp, sys_)
    assert [s.label for s in std] == [
        "A", "C(v2|w2)",
        "D1(w1,w2)", "D2(w1,w2)", "D1(w2,w1)", "D2(w2,w1)",
    ]
    assert [s.tag for s in std] == ["A", "C", "D", "D", "D", "D"]


def test_standard_family_is_a_basis():
    for name, bp in (("EX1", EX1_BP1), ("EX1", None), ("DBL", None)):
        g = graph(name)
        if bp is None:
            bp = bipartition(g)
        sys_, alg = setup(name, bp)
        std = standard_cocycles(g, bp, sys_)
        report = verify_basis(hh2(sys_, alg), [s.cochain for s in std])
        assert report.complete, name
        assert report.count == report.hh2_dim


def test_standard_family_on_tree_with_higher_multiplicities():
    g = parse_ribbon_graph(TREE23)
    for bp in (bipartition(g), bipartition(g).swapped()):
        sys_ = reduction_system(g, bp)
        alg = irreducible_basis(sys_)
        rep = hh2(sys_, alg, graph=g)
        assert rep.hh2_dim == 4 and rep.formula_matches
        std = standard_cocycles(g, bp, sys_)
        assert [s.label for s in std] == ["A", "B(u,1)", "B(w,1)", "B(w,2)"]
        assert verify_basis(hh2(sys_, alg), [s.cochain for s in std]).complete


def test_standard_family_needs_construction_data():
    g = graph("TORUS")
    sys_, alg = setup("TORUS")
    with pytest.raises(NotApplicable):
        standard_cocycles(g, Bipartition({"p"}, set()), sys_)


def test_standard_family_rejects_single_edge():
    g = graph("LOC", m=2)
    sys_, alg = setup("LOC", m=2)
    with pytest.raises(NotApplicable):
        standard_cocycles(g, Bipartition({"p"}, {"q"}), sys_)


# -- verification -----------------------------------------------------------------

def test_verify_cocycle_discriminates():
    sys_, alg = setup("ANNULUS")
    q = sys_.quiver
    assert verify_cocycle(sys_, {0: Element.path(q, "x|y", ("y", "x"))})
    assert not verify_cocycle(sys_, {0: Element.idempotent(q, "x|y")})


def test_verify_basis_flags_short_lists():
    sys_, alg = setup("DBL")
    g = graph("DBL")
    std = standard_cocycles(g, bipartition(g), sys_)
    report = verify_basis(hh2(sys_, alg), [s.cochain for s in std[:3]])
    assert report.all_cocycles and report.independent
    assert not report.complete


# -- report document ---------------------------------------------------------------

def test_report_doc_shape():
    g = graph("EX1")
    rep = hh2(*setup("EX1"), graph=g)
    doc = rep.to_doc()
    assert sorted(doc) == ["basis", "coboundary_dim", "cochain_dim",
                           "cocycle_dim", "formula", "formula_matches",
                           "hh2_dim"]
    assert doc["hh2_dim"] == 2 and len(doc["basis"]) == 2
    entry = doc["basis"][0]
    assert entry["tag"] == "generic"
    for value in entry["values"]:
        assert isinstance(value["tip"], list)
        for mono in value["element"]:
            assert sorted(mono) == ["coeff", "vertex", "word"]
