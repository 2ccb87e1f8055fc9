"""Randomized invariants over every bundled system: no pinned output values,
only laws that must hold whatever the inputs."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from loaders import generated_family, system_for
from oracles import add, reduce_rightmost, zeroth_differential

from bga.fixtures import fixture_doc
from bga.hochschild import (
    coboundary_image,
    cochain_space,
    cocycle_space,
    hh2,
    one_cochain_coords,
)
from bga.linalg import kernel, residual
from bga.presentation import reduction_system
from bga.rewrite import FiniteDimAlgebra, reduce
from bga.ribbon import Bipartition, bipartition, parse_ribbon_graph

TRIALS = 200
F = Fraction


def labeled_systems():
    yield "EX1", system_for("EX1")
    yield "EX1-swapped", system_for("EX1", Bipartition({"w"}, {"v1", "v2"}))
    yield "DBL", system_for("DBL")
    yield "LOC_2", system_for("LOC_2")
    yield "LOC_3", system_for("LOC_3")
    yield "ANNULUS", system_for("ANNULUS")
    yield "TORUS", system_for("TORUS")
    yield "ANN2", system_for("ANN2")


SYSTEMS = [(label, sys_, FiniteDimAlgebra(sys_))
           for label, sys_ in labeled_systems()]


def random_path(rng, quiver, max_len=6):
    by_origin = {}
    for a, (o, t) in quiver.arrows.items():
        by_origin.setdefault(o, []).append(a)
    for v in by_origin:
        by_origin[v].sort()
    first = rng.choice(sorted(quiver.arrows))
    word = [first]
    target = quiver.arrows[first][1]
    while len(word) < max_len and rng.random() < 0.7:
        nxt = by_origin.get(target)
        if not nxt:
            break
        a = rng.choice(nxt)
        word.insert(0, a)
        target = quiver.arrows[a][1]
    origin = quiver.arrows[word[-1]][0]
    return {quiver.key(origin, tuple(word)):
            F(rng.randint(-9, 9) or 1, rng.randint(1, 4))}


def random_element(rng, quiver):
    el = {}
    for _ in range(rng.randint(1, 3)):
        el = add(el, random_path(rng, quiver))
    if rng.random() < 0.2:
        el = add(el, {(rng.choice(quiver.vertices), ()):
                      F(rng.randint(-3, 3) or 1)})
    return el


def test_reduce_is_idempotent():
    rng = random.Random(11)
    for label, sys_, _alg in SYSTEMS:
        for _ in range(TRIALS):
            nf = reduce(sys_, random_element(rng, sys_.quiver))
            assert reduce(sys_, nf) == nf, label


def test_reduce_strategy_independent():
    rng = random.Random(23)
    for label, sys_, _alg in SYSTEMS:
        for _ in range(TRIALS):
            el = random_element(rng, sys_.quiver)
            assert reduce(sys_, el) == reduce_rightmost(sys_, el), label


def test_multiplication_tables_associative():
    rng = random.Random(37)
    for label, _sys, alg in SYSTEMS:
        for _ in range(TRIALS):
            a, b, c = (
                [F(rng.randint(-4, 4)) for _ in range(alg.dim)]
                for _ in range(3))
            left = alg.multiply_coords(alg.multiply_coords(a, b), c)
            right = alg.multiply_coords(a, alg.multiply_coords(b, c))
            assert left == right, label


def random_zero_cochain(rng, quiver, alg):
    phi = {}
    for v in quiver.vertices:
        if rng.random() < 0.3:
            continue
        el = {}
        for _, key in alg.ending_at[v]:
            if key[0] == v and rng.random() < 0.5:
                el = add(el, {key: F(rng.randint(-5, 5))})
        phi[v] = el
    return phi


def test_differentials_compose_to_zero():
    rng = random.Random(41)
    for label, sys_, alg in SYSTEMS:
        index = {pair: i for i, pair in enumerate(one_cochain_coords(alg))}
        image = coboundary_image(alg, cochain_space(alg))
        for _ in range(TRIALS):
            phi = random_zero_cochain(rng, sys_.quiver, alg)
            psi = zeroth_differential(sys_, phi)
            # d^1 psi, combined from the (arrow, path) coboundary vectors
            vec = {}
            for name, value in psi.items():
                for key, c in value.items():
                    for j, y in image[index[(name, key)]].items():
                        vec[j] = vec.get(j, 0) + c * y
            assert not any(vec.values()), label


def test_coboundaries_lie_in_cocycle_space():
    rng = random.Random(53)
    for label, _sys, alg in SYSTEMS:
        coords, rows = cocycle_space(alg)
        red = kernel(rows, len(coords))
        piv = [min(v) for v in red]
        image = coboundary_image(alg, coords)
        for _ in range(TRIALS):
            combo = {}
            for row in image:
                c = F(rng.randint(-3, 3))
                if c:
                    for j, y in row.items():
                        combo[j] = combo.get(j, 0) + c * y
            assert not residual(red, piv, combo), label


def test_hh2_invariant_under_bipartition_swap():
    docs = [("EX1", fixture_doc("EX1")), ("DBL", fixture_doc("DBL"))]
    docs += generated_family()
    assert len(docs) >= 22
    for label, doc in docs:
        g = parse_ribbon_graph(doc)
        dims = []
        one = bipartition(g)
        for bp in (one, Bipartition(one.part_two, one.part_one)):
            sys_ = reduction_system(g, bp)
            dims.append(hh2(FiniteDimAlgebra(sys_), graph=g).hh2_dim)
        assert dims[0] == dims[1], label


@settings(max_examples=TRIALS)
@given(st.integers(-6, 6), st.integers(-6, 6),
       st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6),
       st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6))
def test_reduce_is_linear(c1, c2, w1, w2):
    sys_ = SYSTEMS[5][1]  # the one-vertex two-loop system
    q = sys_.quiver
    e1 = add({}, {q.key("x|y", tuple(w1)): 1}, F(c1))
    e2 = add({}, {q.key("x|y", tuple(w2)): 1}, F(c2))
    assert reduce(sys_, add(e1, e2)) == \
        add(reduce(sys_, e1), reduce(sys_, e2))
