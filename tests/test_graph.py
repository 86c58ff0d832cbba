"""Graph structure, connectivity, cut-vertex behavior and the position-indexed form."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cged.centrality import CentralityMeasure, compute_centrality
from cged.ged import astar_ged, beam_ged
from cged.graph import (
    DuplicateEdgeError,
    Graph,
    MissingEdgeError,
    MissingNodeError,
    Point2D,
    SelfLoopError,
    is_cut_vertex_by_recount,
)
from helpers import cycle_graph, path_graph, random_graph, star_graph


def test_ids_are_dense_and_never_reused():
    g = Graph()
    a = g.add_node("C")
    b = g.add_node("N")
    assert (a, b) == (0, 1)
    g.delete_node(a)
    c = g.add_node("O")
    assert c == 2
    assert g.nodes() == [1, 2]


def test_add_edge_rejections():
    g = path_graph(3)
    with pytest.raises(SelfLoopError):
        g.add_edge(1, 1)
    with pytest.raises(MissingNodeError):
        g.add_edge(0, 99)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(0, 1)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(1, 0)  # undirected: reversed orientation is the same edge


def test_label_validation():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_node("")
    with pytest.raises(TypeError):
        g.add_node(3.14)
    with pytest.raises(ValueError):
        Point2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, float("inf"))
    u = g.add_node("C")
    v = g.add_node("N")
    with pytest.raises(ValueError):
        g.add_edge(u, v, float("inf"))


def test_delete_node_removes_incident_edges():
    g = star_graph(4)
    assert g.degree(0) == 4
    g.delete_node(0)
    assert g.order == 4
    assert g.size == 0
    assert g.component_count() == 4
    with pytest.raises(MissingNodeError):
        g.delete_node(0)


def test_k3_delete_any_node_leaves_single_edge():
    from helpers import complete_graph

    for victim in range(3):
        g = complete_graph(3)
        g.delete_node(victim)
        assert g.order == 2 and g.size == 1


def test_queries_and_ordering():
    g = Graph()
    for i in range(4):
        g.add_node(Point2D(float(i), 0.0))
    g.add_edge(2, 0)
    g.add_edge(3, 1, 2.0)
    assert g.nodes() == [0, 1, 2, 3]
    assert g.edges() == [(0, 2, None), (1, 3, 2.0)]
    assert g.neighbors(0) == [2]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert g.edge_label(3, 1) == 2.0
    with pytest.raises(MissingEdgeError):
        g.edge_label(0, 1)
    with pytest.raises(MissingNodeError):
        g.node_label(9)
    with pytest.raises(MissingNodeError):
        g.neighbors(9)
    with pytest.raises(MissingNodeError):
        g.degree(9)


def test_degree_sum_equals_twice_edges():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, n_max=8, edge_p=0.4)
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.size


def test_connected_components_partition_and_order():
    g = Graph()
    for i in range(5):
        g.add_node("C")
    g.add_edge(3, 4)
    g.add_edge(1, 2)
    blocks = g.connected_components()
    assert blocks == [{0}, {1, 2}, {3, 4}]
    assert g.component_count() == 3
    assert Graph().component_count() == 0


def test_copy_is_independent():
    g = path_graph(3)
    h = g.copy()
    h.delete_node(0)
    h.add_node("Z")
    assert g.order == 3 and g.has_node(0)
    assert h.nodes() == [1, 2, 3]


def test_copy_preserves_id_counter():
    g = path_graph(3)
    h = g.copy()
    assert h.add_node("C") == g.add_node("C")


def test_equality_is_structural():
    a = path_graph(3)
    b = path_graph(3)
    b.name = "other"
    assert a == b
    c = path_graph(3)
    c.delete_node(2)
    c.add_node(Point2D(2.0, 9.0))  # same id, different label
    c.add_edge(1, 3)
    assert a != c
    d = path_graph(3)
    e = Graph.from_parts(None, None,
                         [(i, Point2D(float(i), 0.0)) for i in range(3)],
                         [(0, 1, None)])
    assert d != e  # missing edge
    nodes = [(i, "C") for i in range(4)]
    for label in (3.0, None):  # the same edge with another label
        assert (Graph.from_parts(None, None, nodes, [(0, 1, 2.0)])
                != Graph.from_parts(None, None, nodes, [(0, 1, label)]))
    edges = [(0, 1, None), (1, 2, 1.0), (2, 3, None), (3, 0, 2.0)]
    forward = Graph.from_parts(None, None, nodes, edges)
    backward = Graph.from_parts(None, None, nodes[::-1], [(v, u, w) for u, v, w in edges[::-1]])
    assert forward == backward  # the same edges, added in another order


def test_from_parts_round_trip_and_sparse_ids():
    g = Graph.from_parts("g", "A",
                         [(0, "C"), (5, "N"), (9, Point2D(1.0, 2.0))],
                         [(0, 5, None), (5, 9, 1.5)])
    assert g.nodes() == [0, 5, 9]
    assert g.edges() == [(0, 5, None), (5, 9, 1.5)]
    assert g.add_node("H") == 10  # counter continues past the largest id
    with pytest.raises(ValueError):
        Graph.from_parts(None, None, [(0, "C"), (0, "N")], [])
    with pytest.raises(ValueError):
        Graph.from_parts(None, None, [(-1, "C")], [])


def test_articulation_hand_cases():
    assert path_graph(5).articulation_points() == {1, 2, 3}
    assert cycle_graph(5).articulation_points() == set()
    assert star_graph(4).articulation_points() == {0}
    assert path_graph(1).articulation_points() == set()
    # two triangles joined at one shared vertex
    g = Graph()
    for _ in range(5):
        g.add_node("C")
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
        g.add_edge(u, v)
    assert g.articulation_points() == {2}


def test_cut_vertex_missing_node():
    with pytest.raises(MissingNodeError):
        is_cut_vertex_by_recount(path_graph(2), 7)


def test_articulation_agrees_with_recount_oracle():
    rng = random.Random(202)
    for _ in range(300):
        g = random_graph(rng, n_max=12, edge_p=rng.uniform(0.1, 0.5))
        fast = g.articulation_points()
        for u in g.nodes():
            assert (u in fast) == is_cut_vertex_by_recount(g, u), (g.edges(), u)


def test_delete_decrements_counts_exactly():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, n_max=9, n_min=1, edge_p=0.4)
        u = rng.choice(g.nodes())
        n, m, d = g.order, g.size, g.degree(u)
        g.delete_node(u)
        assert g.order == n - 1
        assert g.size == m - d


EDGE_LABELS = st.one_of(st.none(), st.integers(-3, 3), st.floats(-4.0, 4.0))


@st.composite
def graphs(draw, max_nodes=7):
    """Graphs on sparse, unordered ids with symbolic or coordinate node
    labels and unlabeled, integer or fractional edge labels."""
    ids = draw(st.lists(st.integers(0, 40), max_size=max_nodes, unique=True))
    labels = draw(st.sampled_from([
        st.sampled_from("CNOS"),
        st.builds(Point2D, st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    ]))
    edges = [(u, v, draw(EDGE_LABELS))
             for i, u in enumerate(ids) for v in ids[i + 1:] if draw(st.booleans())]
    return Graph.from_parts(None, None, [(u, draw(labels)) for u in ids], edges)


def fresh_arrays(g: Graph):
    """The form of a newly built graph equal to g, so nothing is cached."""
    return Graph.from_parts(None, None, g.node_items(), g.edges()).arrays()


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_arrays_agree_with_the_graph_api(g):
    a = g.arrays()
    assert g.arrays() is a
    assert list(a.ids) == g.nodes()
    assert len(a.pos) == len(a.ids) and all(a.ids[a.pos[u]] == u for u in a.ids)
    assert list(a.labels) == [g.node_label(u) for u in a.ids]
    assert [[a.ids[j] for j in row] for row in a.adj] == [g.neighbors(u) for u in a.ids]
    assert [(a.ids[i], a.ids[j]) for i, j in a.edges] == [(u, v) for u, v, _ in g.edges()]
    for i, u in enumerate(a.ids):
        for j, v in enumerate(a.ids):
            if not g.has_edge(u, v):
                want = (0, 0.0)
            elif g.edge_label(u, v) is None:
                want = (1, 0.0)
            else:
                want = (2, g.edge_label(u, v))
            assert (a.kind[i][j], a.val[i][j]) == want
    for rows in (a.ids, a.labels, a.adj, a.kind, a.val, a.edges):
        assert type(rows) is tuple
    assert all(type(row) is tuple for rows in (a.adj, a.kind, a.val) for row in rows)


@settings(max_examples=100, deadline=None)
@given(g=graphs(), data=st.data())
def test_arrays_show_every_mutation(g, data):
    g.arrays()
    u = g.add_node("C")
    assert g.arrays() == fresh_arrays(g)
    others = [v for v in g.nodes() if v != u]
    if others:
        g.add_edge(u, data.draw(st.sampled_from(others)), data.draw(EDGE_LABELS))
        assert g.arrays() == fresh_arrays(g)
    g.delete_node(data.draw(st.sampled_from(g.nodes())))
    assert g.arrays() == fresh_arrays(g)


@settings(max_examples=60, deadline=None)
@given(g1=graphs(max_nodes=5), g2=graphs(max_nodes=5))
def test_search_and_centrality_leave_the_form_unchanged(g1, g2):
    a1, a2 = g1.arrays(), g2.arrays()
    before = copy.deepcopy((a1, a2))
    astar_ged(g1, g2)
    beam_ged(g1, g2, w=2)
    for g in (g1, g2):
        for measure in CentralityMeasure:
            compute_centrality(g, measure)
    assert g1.arrays() is a1 and g2.arrays() is a2
    assert (a1, a2) == before


@settings(max_examples=100, deadline=None)
@given(g=graphs(), data=st.data())
def test_copy_shares_the_form_until_it_is_mutated(g, data):
    form = g.arrays()
    free = [(u, v) for u in g.nodes() for v in g.nodes() if u < v and not g.has_edge(u, v)]
    mutations = ["add_node"] + (["delete_node"] if g.order else []) + (["add_edge"] if free else [])
    for mutation in mutations:
        h = g.copy()
        assert h.arrays() is form
        if mutation == "add_node":
            h.add_node("C")
        elif mutation == "delete_node":
            h.delete_node(data.draw(st.sampled_from(h.nodes())))
        else:
            h.add_edge(*data.draw(st.sampled_from(free)), data.draw(EDGE_LABELS))
        assert g.arrays() is form and form == fresh_arrays(g)
        assert h.arrays() == fresh_arrays(h)


@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_pickle_leaves_the_cached_form_out(g):
    g.name, g.class_label = "g", "A"
    size = len(pickle.dumps(g))
    form = g.arrays()
    assert len(pickle.dumps(g)) == size
    back = pickle.loads(pickle.dumps(g))
    assert back == g and (back.name, back.class_label) == ("g", "A")
    assert back.arrays() == form
    assert back.add_node("C") == g.copy().add_node("C")


@pytest.mark.parametrize("mutation", ["add_node", "add_edge", "delete_node"])
def test_memo_is_emptied_by_mutators_and_left_out_of_copies_and_pickles(mutation):
    g = path_graph(3)
    size = len(pickle.dumps(g))
    g._memo["derived"] = path_graph(2)
    assert g.copy()._memo == {}
    assert pickle.loads(pickle.dumps(g))._memo == {}
    assert len(pickle.dumps(g)) == size
    if mutation == "add_node":
        g.add_node(Point2D(0.0, 1.0))
    elif mutation == "add_edge":
        g.add_edge(0, 2)
    else:
        g.delete_node(1)
    assert g._memo == {}
