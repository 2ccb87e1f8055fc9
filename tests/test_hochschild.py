import json

import pytest
from fractions import Fraction

from loaders import (
    algebra,
    even_cycle_doc,
    generated_family,
    graph,
    star_doc,
    system_for,
)
from oracles import verify_cocycle, zeroth_differential

from bga.errors import (
    NonBipartite,
    NotApplicable,
    RequiresConfluentSystem,
    SchemaError,
)
from bga.hochschild import (
    cochain_from_values_doc,
    cochain_from_vector,
    cochain_space,
    coboundary_image,
    cochain_values_doc,
    cocycle_space,
    hh2,
    one_cochain_coords,
    standard_cocycles,
    vector_from_cochain,
    verify_basis,
)
from bga.linalg import kernel, rank, residual, rref
from bga.presentation import reduction_system, rules_from_doc
from bga.rewrite import FiniteDimAlgebra, ReductionSystem, Rule
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

F = Fraction


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
    alg = algebra("ANNULUS")
    coords = cochain_space(alg)
    # three rules, each with the four loop classes at the single vertex
    words = [(), ("x",), ("y",), ("y", "x")]
    assert coords == [(ri, ("x|y", w)) for ri in range(3) for w in words]


def test_coordinates_are_the_parallel_pairs():
    # brute force from the definition, in the order the golden digests rely
    # on: each rule (arrow) with every basis path parallel to its tip (to
    # it), rules in order (arrows by name) and paths in basis order
    names = ["EX1", "DBL", "ANNULUS", "TORUS", "ANN2"]
    names += [f"LOC_{m}" for m in range(1, 6)]
    algebras = [(n, algebra(n)) for n in names]
    docs = generated_family() + [("star16", star_doc(16, [3] + [2] * 16)),
                                 ("cycle32", even_cycle_doc(32, [2] * 64))]
    algebras += [(label, FiniteDimAlgebra(
        reduction_system(parse_ribbon_graph(doc)))) for label, doc in docs]
    for label, alg in algebras:
        q = alg.quiver
        ends = {k: (k[0], q.path_target(k)) for k in alg.basis}
        assert cochain_space(alg) == [
            (ri, k) for ri, rule in enumerate(alg.system.rules)
            for k in alg.basis
            if ends[k] == (rule.tip[0], q.path_target(rule.tip))], label
        assert one_cochain_coords(alg) == [
            (name, k) for name in sorted(q.arrows) for k in alg.basis
            if ends[k] == q.arrows[name]], label


def test_vector_cochain_round_trip():
    alg = algebra("ANNULUS")
    sys_ = alg.system
    q = sys_.quiver
    coords = cochain_space(alg)
    vec = {3: F(2), 4: F(-1), 11: F(5)}
    cochain = cochain_from_vector(coords, vec)
    assert vector_from_cochain(sys_, coords, cochain) == vec
    assert cochain[0] == {q.key("x|y", ("y", "x")): F(2)}


def test_cochain_values_document_round_trip():
    # each standard cochain, written as its "values" document and read back
    graphs = [(name, graph(name)) for name in ("EX1", "DBL")]
    graphs += [(label, parse_ribbon_graph(doc))
               for label, doc in generated_family()]
    checked = 0
    for label, g in graphs:
        if len(g.edges) == 1:
            continue  # no standard family
        bp = bipartition(g)
        for b in (bp, Bipartition(bp.part_two, bp.part_one)):
            sys_ = reduction_system(g, b)
            std = standard_cocycles(g, sys_)
            for s in std:
                text = json.dumps({"values": cochain_values_doc(sys_,
                                                                s.cochain)})
                back = cochain_from_values_doc(sys_, json.loads(text))
                assert back == {ri: value for ri, value in s.cochain.items()
                                if value}, (label, s.label)
                checked += 1
            # the family reads its sides off the rules of either system
            report = verify_basis(hh2(FiniteDimAlgebra(sys_)),
                                  [s.cochain for s in std])
            assert report.complete, (label, b)
    assert checked > 100


def test_vector_from_cochain_rejects_reducible_value():
    alg = algebra("ANNULUS")
    sys_ = alg.system
    coords = cochain_space(alg)
    bad = {0: {sys_.quiver.key("x|y", ("x", "y")): 1}}
    with pytest.raises(SchemaError) as err:
        vector_from_cochain(sys_, coords, bad)
    assert str(err.value) == "rhs of x*y is itself reducible"


# -- differentials --------------------------------------------------------------

def test_differentials_compose_to_zero():
    alg = algebra("EX1", EX1_BP1)
    sys_ = alg.system
    q = sys_.quiver
    phi = {"a|d": {q.key("a|d", ("a",)): F(3)},
           "b|g": {q.key("b|g", ("b", "b")): F(-2), ("b|g", ()): 1}}
    psi = zeroth_differential(sys_, phi)
    assert psi
    # d^1 psi, combined from the coboundary image's (arrow, path) vectors
    index = {pair: i for i, pair in enumerate(one_cochain_coords(alg))}
    image = coboundary_image(alg, cochain_space(alg))
    vec = {}
    for name, value in psi.items():
        for key, c in value.items():
            for j, y in image[index[(name, key)]].items():
                vec[j] = vec.get(j, 0) + c * y
    assert not any(vec.values())


def test_coboundaries_are_cocycles():
    for name in ("EX1", "DBL", "ANNULUS", "ANN2"):
        alg = algebra(name)
        coords, rows = cocycle_space(alg)
        red = kernel(rows, len(coords))
        piv = [min(v) for v in red]
        for v in coboundary_image(alg, coords):
            assert not residual(red, piv, v), name


# -- computed dimensions ----------------------------------------------------------

def test_cocycle_dim_is_cochain_dim_minus_rank_of_rows():
    # hh2 counts the cocycles as representatives plus coboundaries, a direct
    # sum; rank-nullity on the kept constraint rows counts them again
    names = ["EX1", "DBL", "ANNULUS", "TORUS", "ANN2"]
    algebras = [(n, algebra(n)) for n in names]
    algebras += [(f"LOC_{m}", algebra(f"LOC_{m}")) for m in range(1, 6)]
    for label, doc in generated_family():
        algebras.append((label, FiniteDimAlgebra(
            reduction_system(parse_ribbon_graph(doc)))))
    for label, alg in algebras:
        report = hh2(alg)
        assert report.cocycle_dim == report.cochain_dim - rank(report.rows), \
            label

def dims(report):
    return (report.cochain_dim, report.cocycle_dim, report.coboundary_dim,
            report.hh2_dim)


def test_ex1_dimensions_and_formula():
    g = graph("EX1")
    alg = algebra("EX1")
    rep = hh2(alg, graph=g)
    assert dims(rep) == (7, 4, 2, 2)
    assert rep.formula == 2 and rep.formula_matches
    alg1 = algebra("EX1", EX1_BP1)
    rep1 = hh2(alg1, graph=g)
    assert dims(rep1) == (14, 6, 4, 2)
    assert rep1.formula == 2 and rep1.formula_matches


def test_dbl_dimensions_and_formula():
    g = graph("DBL")
    rep = hh2(algebra("DBL"), graph=g)
    assert dims(rep) == (16, 9, 3, 6)
    assert rep.formula == 6 and rep.formula_matches


def test_loc_dimensions_match_multiplicity():
    expected = {1: (2, 2, 1, 1), 2: (12, 6, 4, 2),
                3: (16, 8, 5, 3), 4: (20, 10, 6, 4)}
    for m, d in expected.items():
        g = graph(f"LOC_{m}")
        rep = hh2(algebra(f"LOC_{m}"), graph=g)
        assert dims(rep) == d, m
        assert rep.formula == m and rep.formula_matches


def test_annulus_dimensions():
    assert dims(hh2(algebra("ANNULUS"))) == (12, 9, 4, 5)


def test_torus_dimensions():
    # regression pin; confirmed against an independent complex
    assert dims(hh2(algebra("TORUS"))) == (28, 10, 8, 2)


def test_ann2_dimensions():
    # regression pin; confirmed against an independent complex
    assert dims(hh2(algebra("ANN2"))) == (12, 7, 3, 4)


def test_requires_confluence():
    # finite-dimensional, basis e, x, y, y*x, but the overlap x|x|y
    # resolves to 0 one way and to x the other
    q = system_for("ANNULUS").quiver
    broken = FiniteDimAlgebra(ReductionSystem(q, [
        Rule(q.word_key(("x", "y")), {("x|y", ()): 1}),
        Rule(q.word_key(("x", "x")), {}),
        Rule(q.word_key(("y", "y")), {}),
    ]))
    assert [w for _, w in broken.basis] == [(), ("x",), ("y",), ("y", "x")]
    with pytest.raises(RequiresConfluentSystem):
        hh2(broken)


def test_hh2_makes_two_eliminations(monkeypatch):
    # one for the coboundary image, one for the kernel that gives the
    # representatives: ``quotient`` reads its rref off that elimination
    calls = []

    def counted(rows, ncols=None):
        calls.append(ncols)
        return rref(rows, ncols)

    monkeypatch.setattr("bga.hochschild.rref", counted)
    monkeypatch.setattr("bga.linalg.rref", counted)
    for name, dim in (("EX1", 2), ("ANNULUS", 5), ("ANN2", 4)):
        alg = algebra(name)
        calls.clear()
        assert hh2(alg).hh2_dim == dim
        assert len(calls) == 2, name


# -- the annulus subspaces, coordinate by coordinate ------------------------------

def test_annulus_cocycles_are_unit_axes():
    alg = algebra("ANNULUS")
    coords, rows = cocycle_space(alg)
    red = kernel(rows, len(coords))
    piv = [min(v) for v in red]
    assert piv == list(range(3, 12))
    assert red == [unit(i) for i in piv]


def test_annulus_coboundary_axes():
    # on the nine cocycle axes kappa, mu_1..4, nu_1..4 a cochain bounds
    # exactly when kappa, mu_1, mu_3, nu_1, nu_2 all vanish
    alg = algebra("ANNULUS")
    coords = cochain_space(alg)
    red, piv = rref(coboundary_image(alg, coords))
    assert piv == [5, 7, 10, 11]
    assert red == [unit(i) for i in piv]
    kappa, mu, nu = 3, (4, 5, 6, 7), (8, 9, 10, 11)
    bounding = {mu[1], mu[3], nu[2], nu[3]}
    for i in [kappa, *mu, *nu]:
        assert (not residual(red, piv, unit(i))) == (i in bounding)


# -- the two-punctured annulus, rule by rule --------------------------------------

def test_ann2_subspaces():
    alg = algebra("ANN2")
    sys_ = alg.system
    q = sys_.quiver
    coords = cochain_space(alg)
    assert coords == [
        (0, ("a1|a2", ())), (0, ("a1|a2", ("a1",))),
        (0, ("a1|a2", ("bq", "a2"))), (0, ("a1|a2", ("bq", "a2", "a1"))),
        (1, ("bp|bq", ("bq",))), (1, ("bp|bq", ("a1", "bq"))),
        (2, ("a1|a2", ())), (2, ("a1|a2", ("a1",))),
        (2, ("a1|a2", ("bq", "a2"))), (2, ("a1|a2", ("bq", "a2", "a1"))),
        (3, ("bp|bq", ())), (3, ("bp|bq", ("a2", "a1", "bq"))),
    ]
    redb, pivb = rref(coboundary_image(alg, coords))
    assert pivb == [7, 9, 11]
    assert redb == [unit(i) for i in pivb]
    coords_c, rows = cocycle_space(alg)
    assert coords_c == coords
    redc = kernel(rows, len(coords))
    pivc = [min(v) for v in redc]
    assert pivc == [3, 5, 6, 7, 8, 9, 11]
    # the direction supported on rules 1 and 3 jointly: a cocycle that does
    # not bound, invisible to any ansatz that zeroes the redundant rule
    paired = unit(5)
    paired[10] = F(1)
    assert not residual(redc, pivc, paired)
    assert residual(redb, pivb, paired)
    cochain = {1: {q.key("bp|bq", ("a1", "bq")): 1},
               3: {("bp|bq", ()): 1}}
    assert verify_cocycle(sys_, cochain)


# -- the named family -------------------------------------------------------------

def test_standard_family_ex1_both_bipartitions():
    g = graph("EX1")
    sys_ = system_for("EX1", EX1_BP1)
    std = standard_cocycles(g, sys_)
    assert isinstance(std, list)  # deform alone takes the members lazily
    assert [s.label for s in std] == ["A", "B(v2,1)"]
    assert [s.tag for s in std] == ["A", "B"]
    by_tip = {r.tip[1]: i for i, r in enumerate(sys_.rules)}
    q = sys_.quiver
    a, b = std
    assert a.cochain == {
        by_tip[("g", "d")]: {("a|d", ()): 1},
        by_tip[("d", "g")]: {("b|g", ()): 1},
        by_tip[("a", "a")]: {q.key("a|d", ("a",)): F(-1)},
        by_tip[("b", "b", "b")]: {q.key("b|g", ("b",)): F(-1)},
    }
    assert b.cochain == {
        by_tip[("d", "g")]: {q.key("b|g", ("b",)): 1},
        by_tip[("b", "b", "b")]: {q.key("b|g", ("b", "b")): F(-1)},
    }
    sys2 = system_for("EX1")
    std2 = standard_cocycles(g, sys2)
    assert [s.label for s in std2] == ["A", "B(v2,1)"]
    tips2 = {r.tip[1]: i for i, r in enumerate(sys2.rules)}
    assert std2[1].cochain == {
        tips2[("b", "b")]: {sys2.quiver.key("b|g", ("b",)): 1}}


def test_standard_family_dbl():
    g = graph("DBL")
    sys_ = system_for("DBL")
    std = standard_cocycles(g, sys_)
    assert [s.label for s in std] == [
        "A", "C(v2|w2)",
        "D1(w1,w2)", "D2(w1,w2)", "D1(w2,w1)", "D2(w2,w1)",
    ]
    assert [s.tag for s in std] == ["A", "C", "D", "D", "D", "D"]


def test_standard_family_is_a_basis():
    for name, bp in (("EX1", EX1_BP1), ("EX1", None), ("DBL", None)):
        alg = algebra(name, bp)
        std = standard_cocycles(graph(name), alg.system)
        report = verify_basis(hh2(alg), [s.cochain for s in std])
        assert report.complete, name
        assert report.count == report.hh2_dim


def test_standard_family_on_tree_with_higher_multiplicities():
    g = parse_ribbon_graph(TREE23)
    one = bipartition(g)
    for bp in (one, Bipartition(one.part_two, one.part_one)):
        sys_ = reduction_system(g, bp)
        alg = FiniteDimAlgebra(sys_)
        rep = hh2(alg, graph=g)
        assert rep.hh2_dim == 4 and rep.formula_matches
        std = standard_cocycles(g, sys_)
        assert [s.label for s in std] == ["A", "B(u,1)", "B(w,1)", "B(w,2)"]
        assert verify_basis(hh2(alg), [s.cochain for s in std]).complete


def test_standard_family_needs_construction_data():
    # the derived rules of EX1, written as a rule document and read back:
    # the same rules without their tags
    g = graph("EX1")
    derived = system_for("EX1")
    doc = {"rules": [{"tip": list(r.tip[1]),
                      "rhs": [[str(c), list(w)]
                              for (_, w), c in r.rhs.items()]}
                     for r in derived.rules]}
    sys_ = rules_from_doc(derived.quiver, doc)
    assert [r.tip for r in sys_.rules] == [r.tip for r in derived.rules]
    with pytest.raises(NotApplicable, match="construction data"):
        standard_cocycles(g, sys_)


def test_standard_family_rejects_single_edge():
    g = graph("LOC_2")
    sys_ = system_for("LOC_2")
    with pytest.raises(NotApplicable, match="single-edge"):
        standard_cocycles(g, sys_)


def test_standard_family_needs_a_bipartite_graph():
    # a graph with a loop is reported before its untagged bundled rules,
    # in the order the cli reports them
    for name in ("TORUS", "ANN2", "ANNULUS"):
        with pytest.raises(NonBipartite):
            standard_cocycles(graph(name), system_for(name))


# -- verification -----------------------------------------------------------------

def test_verify_cocycle_discriminates():
    sys_ = system_for("ANNULUS")
    q = sys_.quiver
    assert verify_cocycle(sys_, {0: {q.key("x|y", ("y", "x")): 1}})
    assert not verify_cocycle(sys_, {0: {("x|y", ()): 1}})


def test_verify_basis_flags_short_lists():
    alg = algebra("DBL")
    sys_ = alg.system
    g = graph("DBL")
    std = standard_cocycles(g, sys_)
    report = verify_basis(hh2(alg), [s.cochain for s in std[:3]])
    assert report.all_cocycles and report.independent
    assert not report.complete


# -- report document ---------------------------------------------------------------

def test_report_doc_shape():
    g = graph("EX1")
    rep = hh2(algebra("EX1"), graph=g)
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
