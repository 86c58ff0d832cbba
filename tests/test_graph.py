"""Graph structure, connectivity and cut-vertex behavior."""

import random

import pytest

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
    assert not path_graph(1).is_cut_vertex(0)
    # two triangles joined at one shared vertex
    g = Graph()
    for _ in range(5):
        g.add_node("C")
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
        g.add_edge(u, v)
    assert g.articulation_points() == {2}


def test_cut_vertex_missing_node():
    with pytest.raises(MissingNodeError):
        path_graph(2).is_cut_vertex(7)
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
