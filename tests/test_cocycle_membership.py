"""Cocycle membership by the constraint rows against ``verify_cocycle``.

``verify_basis`` decides that a cochain is a cocycle from the constraint
rows an ``hh2`` report keeps: its vector must have dot product 0 with each
of them.  ``verify_cocycle`` decides the same thing independently, by
deforming the system to first order along the cochain and resolving every
overlap.  The two must agree on

* the kernel basis of the kept rows (every vector the rows accept), the
  coboundaries, the HH^2 representatives and, where the graph has one, the
  standard family, each alone and with one random coordinate added, on the
  fixtures with and without bundled rules and on ``generated_family()``;
* hypothesis-drawn combinations of the standard cocycles of a drawn
  bipartite graph plus random parallel basis-path noise.
"""

import random

from hypothesis import assume, event, given, settings, strategies as st

from loaders import generated_family
from oracles import verify_cocycle
from test_cocycle_oracle import SYSTEMS, bipartite_graphs

from bga.fixtures import fixture_doc
from bga.hochschild import (
    cochain_from_vector,
    hh2,
    standard_cocycles,
    vector_from_cochain,
    verify_basis,
)
from bga.linalg import kernel
from bga.presentation import reduction_system
from bga.rewrite import FiniteDimAlgebra
from bga.ribbon import bipartition, parse_ribbon_graph


def agree(report, cochain):
    """Both decisions for one cochain; returns the common verdict."""
    by_rows = verify_basis(report, [cochain]).all_cocycles
    assert by_rows == verify_cocycle(report.alg.system, cochain)
    return by_rows


# the graphs behind the derived systems of SYSTEMS; the bundled rule
# systems carry no construction data and so have no standard family
GRAPHS = {"EX1": fixture_doc("EX1"), "DBL": fixture_doc("DBL"),
          "EX1-swapped": fixture_doc("EX1")}
GRAPHS.update(generated_family())


def family_vectors(label, report):
    """Coordinate vectors of the standard family, when the system has one."""
    if label not in GRAPHS:
        return []
    g = parse_ribbon_graph(GRAPHS[label])
    if len(g.edges) == 1:
        return []
    family = standard_cocycles(g, report.alg.system)
    return [vector_from_cochain(report.alg.system, report.coords, s.cochain)
            for s in family]


def test_row_membership_matches_verify_cocycle_on_fixtures():
    rng = random.Random(8)
    verdicts = {True: 0, False: 0}
    for label, _system, alg in SYSTEMS:
        report = hh2(alg)
        vecs = kernel(report.rows, report.cochain_dim)
        vecs += report.coboundaries[0] + report.representatives
        vecs += family_vectors(label, report)
        for vec in vecs:
            noisy = dict(vec)
            j = rng.randrange(report.cochain_dim)
            noisy[j] = noisy.get(j, 0) + rng.choice((-2, -1, 1, 3))
            for v in (vec, noisy):
                cochain = cochain_from_vector(report.coords, v)
                verdicts[agree(report, cochain)] += 1
    assert min(verdicts.values()) > 100, verdicts


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs(), st.data())
def test_row_membership_matches_verify_cocycle_on_drawn_cochains(doc, data):
    g = parse_ribbon_graph(doc)
    assume(g.dimension_sum() <= 60 and len(g.edges) > 1)
    system = reduction_system(g, bipartition(g))
    alg = FiniteDimAlgebra(system)
    report = hh2(alg)
    vec = {}
    for s in standard_cocycles(g, system):
        c = data.draw(st.integers(-2, 2))
        for j, x in vector_from_cochain(system, report.coords,
                                        s.cochain).items():
            vec[j] = vec.get(j, 0) + c * x
    noise = data.draw(st.lists(
        st.tuples(st.integers(0, report.cochain_dim - 1),
                  st.sampled_from((-1, 1, 2))), max_size=2))
    for j, x in noise:
        vec[j] = vec.get(j, 0) + x
    cochain = cochain_from_vector(report.coords,
                                  {j: x for j, x in vec.items() if x})
    event("cocycle" if agree(report, cochain) else "not a cocycle")
