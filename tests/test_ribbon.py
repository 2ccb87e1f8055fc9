import json

import pytest
from hypothesis import given, settings, strategies as st

from loaders import NAMED, generated_family, graph
from test_cocycle_oracle import bipartite_graphs

from bga.errors import (
    Disconnected,
    InvalidInvolution,
    InvalidRotation,
    NonBipartite,
    SchemaError,
)
from bga.ribbon import (
    bipartition,
    boundary_walks,
    check_bipartition,
    parse_ribbon_graph,
    spanning_tree,
)
from bga.fixtures import fixture_doc


# -- parsing and validation -------------------------------------------------

def test_ex1_shape():
    g = graph("EX1")
    assert g.vertices() == ["v1", "v2", "w"]
    assert len(g.half_edges) == 4
    assert len(g.edges) == 2
    assert g.multiplicity == {"v1": 1, "v2": 2, "w": 1}
    assert g.valence("w") == 2
    assert g.is_truncated("v1")
    assert not g.is_truncated("v2")  # multiplicity 2
    assert not g.is_truncated("w")


def test_valence_sum_is_twice_edges():
    for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2"):
        g = graph(name)
        assert sum(g.valence(v) for v in g.vertices()) == 2 * len(g.edges)


def assert_edge_table(g):
    """``g.edges`` is the table the pairing defines: the sorted "a|b" ids,
    each with its halves a < b."""
    pairs = {tuple(sorted(pair)) for pair in g.pairing.items()}
    assert list(g.edges.items()) == sorted((f"{a}|{b}", (a, b))
                                           for a, b in pairs)


def test_the_edge_table_of_every_named_and_family_graph():
    for name in NAMED:
        assert_edge_table(graph(name))
    for _, doc in generated_family():
        assert_edge_table(parse_ribbon_graph(doc))


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_the_edge_table_of_drawn_graphs(doc):
    assert_edge_table(parse_ribbon_graph(doc))


def assert_graph_index(g):
    """``successor`` and ``edge_of``, read off the indexes the graph builds
    once, agree at every half-edge with the rotation and the pairing."""
    for h in g.half_edges:
        cyc = g.rotation[g.incidence[h]]
        assert g.successor(h) == cyc[(cyc.index(h) + 1) % len(cyc)], h
        a, b = sorted((h, g.pairing[h]))
        assert g.edge_of(h) == f"{a}|{b}", h


def test_the_graph_index_of_every_named_and_family_graph():
    for name in NAMED:
        assert_graph_index(graph(name))
    for _, doc in generated_family():
        assert_graph_index(parse_ribbon_graph(doc))


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_the_graph_index_of_drawn_graphs(doc):
    assert_graph_index(parse_ribbon_graph(doc))


def test_the_edge_table_sorts_ids_not_pairs():
    # the ids are compared as strings: "ab|c" < "a|b" since "b" < "|",
    # although the pair ("a", "b") comes before ("ab", "c")
    g = parse_ribbon_graph(json.dumps({
        "vertices": [{"id": "u", "multiplicity": 1},
                     {"id": "v", "multiplicity": 1}],
        "half_edges": ["ab", "c", "a", "b"],
        "incidence": {"ab": "u", "c": "v", "a": "u", "b": "v"},
        "pairing": [["ab", "c"], ["a", "b"]],
        "rotation": {"u": ["ab", "a"], "v": ["c", "b"]}}))
    assert list(g.edges.items()) == [("ab|c", ("ab", "c")), ("a|b", ("a", "b"))]


def _doc(**overrides):
    base = json.loads(fixture_doc("EX1"))
    base.update(overrides)
    return json.dumps(base)


def test_duplicate_vertex_rejected():
    doc = json.loads(fixture_doc("EX1"))
    doc["vertices"].append({"id": "v1", "multiplicity": 1})
    with pytest.raises(SchemaError):
        parse_ribbon_graph(json.dumps(doc))


def test_zero_multiplicity_rejected():
    # a JSON boolean is no multiplicity, although Python counts it an int
    for bad in (0, True):
        doc = json.loads(fixture_doc("EX1"))
        doc["vertices"][0]["multiplicity"] = bad
        with pytest.raises(SchemaError):
            parse_ribbon_graph(json.dumps(doc))


@pytest.mark.parametrize("key, value", [
    ("half_edges", ["a", ["z"]]),
    ("pairing", [[["a"], "d"], ["b", "g"]]),
    ("vertices", 3),
    ("incidence", {"a": ["v1"], "d": "w", "g": "w", "b": "v2"}),
    ("incidence", ["a", "d", "g", "b"]),
    ("rotation", ["v1", "w", "v2"]),
    ("rotation", {"v1": ["a"], "w": [["d"], "g"], "v2": ["b"]}),
], ids=["unhashable_half_edge", "unhashable_pair", "vertices_not_a_list",
        "incidence_value_a_list", "incidence_a_list", "rotation_a_list",
        "unhashable_rotation_entry"])
def test_ill_typed_document_is_schema_error(key, value):
    with pytest.raises(SchemaError):
        parse_ribbon_graph(_doc(**{key: value}))


def test_fixed_point_involution_rejected():
    with pytest.raises(InvalidInvolution):
        parse_ribbon_graph(_doc(pairing=[["a", "a"], ["d", "g"]]))


def test_half_edge_paired_twice_rejected():
    with pytest.raises(InvalidInvolution):
        parse_ribbon_graph(_doc(pairing=[["a", "d"], ["a", "g"]]))


def test_rotation_wrong_vertex_rejected():
    doc = json.loads(fixture_doc("EX1"))
    doc["rotation"]["v1"] = ["d"]
    doc["rotation"]["w"] = ["a", "g"]
    with pytest.raises(InvalidRotation):
        parse_ribbon_graph(json.dumps(doc))


def test_disconnected_rejected():
    doc = {
        "vertices": [{"id": "a", "multiplicity": 1}, {"id": "b", "multiplicity": 1},
                     {"id": "c", "multiplicity": 1}, {"id": "d", "multiplicity": 1}],
        "half_edges": ["h1", "h2", "h3", "h4"],
        "incidence": {"h1": "a", "h2": "b", "h3": "c", "h4": "d"},
        "pairing": [["h1", "h2"], ["h3", "h4"]],
        "rotation": {"a": ["h1"], "b": ["h2"], "c": ["h3"], "d": ["h4"]},
    }
    with pytest.raises(Disconnected):
        parse_ribbon_graph(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(SchemaError):
        parse_ribbon_graph("{nope")


# -- bipartition -------------------------------------------------------------

def test_ex1_default_bipartition():
    bp = bipartition(graph("EX1"))
    assert bp.part_one == {"v1", "v2"}
    assert bp.part_two == {"w"}


def test_dbl_default_bipartition():
    bp = bipartition(graph("DBL"))
    assert bp.part_one == {"v"}
    assert bp.part_two == {"w"}


def test_loop_not_bipartite():
    with pytest.raises(NonBipartite) as exc:
        bipartition(graph("ANNULUS"))
    assert exc.value.witness  # a loop witness names the vertex


def test_triangle_not_bipartite_with_odd_witness():
    doc = {
        "vertices": [{"id": "a", "multiplicity": 1}, {"id": "b", "multiplicity": 1},
                     {"id": "c", "multiplicity": 1}],
        "half_edges": ["ab", "ba", "bc", "cb", "ca", "ac"],
        "incidence": {"ab": "a", "ba": "b", "bc": "b", "cb": "c", "ca": "c", "ac": "a"},
        "pairing": [["ab", "ba"], ["bc", "cb"], ["ca", "ac"]],
        "rotation": {"a": ["ab", "ac"], "b": ["ba", "bc"], "c": ["cb", "ca"]},
    }
    with pytest.raises(NonBipartite) as exc:
        bipartition(parse_ribbon_graph(json.dumps(doc)))
    w = exc.value.witness
    assert len(w) % 2 == 1 and len(set(w)) == len(w)


def test_check_bipartition():
    g = graph("EX1")
    bp = bipartition(g)
    assert check_bipartition(g, bp)
    from bga.ribbon import Bipartition
    assert check_bipartition(g, Bipartition(bp.part_two, bp.part_one))
    assert not check_bipartition(g, Bipartition({"v1", "w"}, {"v2"}))
    assert not check_bipartition(g, Bipartition({"v1"}, {"w"}))  # misses v2


# -- spanning tree -----------------------------------------------------------

def test_spanning_trees():
    g = graph("EX1")
    assert spanning_tree(g) == set(g.edges)  # EX1 is a tree
    d = graph("DBL")
    t = spanning_tree(d)
    assert len(t) == 1 and t < set(d.edges)
    a = graph("ANNULUS")
    assert spanning_tree(a) == set()  # one vertex, loops only


def test_spanning_tree_size_is_vertices_minus_one():
    for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2"):
        g = graph(name)
        assert len(spanning_tree(g)) == len(g.vertices()) - 1


# -- boundary walks ----------------------------------------------------------

def test_boundary_partition():
    for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2"):
        g = graph(name)
        bw = boundary_walks(g)
        visited = [h for f in bw.faces for h in f]
        assert sorted(visited) == sorted(g.half_edges)


def test_dbl_two_bigons():
    bw = boundary_walks(graph("DBL"))
    assert len(bw.faces) == 2
    assert len(bw.bigon_faces) == 2
    assert {frozenset(f) for f in bw.bigon_faces} == {frozenset({"v1", "w2"}),
                                                      frozenset({"v2", "w1"})}


def test_ex1_single_face_no_bigons():
    bw = boundary_walks(graph("EX1"))
    assert len(bw.faces) == 1
    assert len(bw.faces[0]) == 4
    assert bw.bigon_faces == []


def test_pendant_edge_face_is_not_a_bigon():
    bw = boundary_walks(graph("LOC_2"))
    assert all(len(f) == 2 for f in bw.faces)
    assert bw.bigon_faces == []  # one endpoint truncated


def test_dimension_sum():
    assert graph("EX1").dimension_sum() == 1 * 1 + 2 * 1 + 1 * 4
    assert graph("DBL").dimension_sum() == 8
    assert graph("LOC_3").dimension_sum() == 3 + 1


# -- randomized round-trip ----------------------------------------------------

@st.composite
def even_cycle_graphs(draw):
    n = 2 * draw(st.integers(min_value=2, max_value=6))
    mults = draw(st.lists(st.integers(min_value=1, max_value=3),
                          min_size=n, max_size=n))
    verts = [f"c{i}" for i in range(n)]
    halves, incidence, pairing = [], {}, []
    rotation = {v: [] for v in verts}
    for i in range(n):
        j = (i + 1) % n
        a, b = f"h{i}f", f"h{j}b"
        halves += [a, b]
        incidence[a] = verts[i]
        incidence[b] = verts[j]
        pairing.append([a, b])
        rotation[verts[i]].append(a)
        rotation[verts[j]].append(b)
    return json.dumps({
        "vertices": [{"id": v, "multiplicity": m} for v, m in zip(verts, mults)],
        "half_edges": halves,
        "incidence": incidence,
        "pairing": pairing,
        "rotation": rotation,
    })


@given(even_cycle_graphs())
def test_even_cycles_round_trip_and_bipartite(doc):
    g = parse_ribbon_graph(doc)
    bp = bipartition(g)
    assert check_bipartition(g, bp)
    assert len(spanning_tree(g)) == len(g.vertices()) - 1
