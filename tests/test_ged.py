"""Edit-distance search: exact values, oracle agreement, bounds, pipelines."""

import random

import pytest

from cged import CentralityMeasure, CostModel, astar_ged, beam_ged, t_centrality_ged
from cged.costs import OpKind
from cged.ged import Heuristic, SearchSpec, brute_force_ged, run_search
from cged.graph import Graph, Point2D
from helpers import (
    assert_path_consistent,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)

MODELS = [
    CostModel(),
    CostModel(0.9, 1.7, 0.4, 0.2),
    CostModel(2.0, 0.5, 1.5, 3.0),
]


def perturbed_p3() -> Graph:
    g = Graph()
    g.add_node(Point2D(0.0, 0.0))
    g.add_node(Point2D(1.0, 0.0))
    g.add_node(Point2D(2.0, 0.5))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


def test_identical_graphs_cost_zero():
    for g in (Graph(), path_graph(3), cycle_graph(4), star_graph(3), complete_graph(4)):
        res = astar_ged(g, g)
        assert res.cost == 0.0
        assert res.path.complete
        assert_path_consistent(res, g, g)


def test_empty_vs_single_node():
    g2 = Graph()
    g2.add_node("C")
    res = astar_ged(Graph(), g2)
    assert res.cost == 1.0
    assert res.expanded_nodes == 0
    res = astar_ged(Graph(), g2, CostModel(x_node=2.5))
    assert res.cost == 2.5
    assert astar_ged(g2, Graph()).cost == 1.0
    assert astar_ged(Graph(), Graph()).cost == 0.0


def test_empty_vs_k2():
    # two node insertions plus one edge insertion at unit costs
    g2 = Graph()
    g2.add_node(Point2D(0, 0))
    g2.add_node(Point2D(1, 0))
    g2.add_edge(0, 1)
    res = astar_ged(Graph(), g2)
    assert res.cost == 3.0
    assert_path_consistent(res, Graph(), g2)


def test_moved_leaf_costs_its_displacement():
    res = astar_ged(path_graph(3), perturbed_p3())
    assert res.cost == pytest.approx(0.5, abs=1e-12)
    assert_path_consistent(res, path_graph(3), perturbed_p3())


def test_single_node_relabel_3_4_5():
    g1 = Graph(); g1.add_node(Point2D(0, 0))
    g2 = Graph(); g2.add_node(Point2D(3, 4))
    # the 3-4-5 substitution costs 5, delete + insert only 2
    assert astar_ged(g1, g2).cost == 2.0
    # with pricey node removal the substitution wins at exactly 5
    res = astar_ged(g1, g2, CostModel(x_node=10.0))
    assert res.cost == 5.0
    assert [op.kind for op in res.path.operations] == [OpKind.NODE_SUB]
    assert astar_ged(g1, g2, CostModel(x_node=0.5)).cost == 1.0


def test_astar_matches_brute_force_on_random_pairs():
    rng = random.Random(97)
    for trial in range(80):
        symbolic = trial % 2 == 0
        g1 = random_graph(rng, n_max=4, symbolic=symbolic, numeric_edge_p=0.4)
        g2 = random_graph(rng, n_max=4, symbolic=symbolic, numeric_edge_p=0.4)
        cm = MODELS[trial % len(MODELS)]
        want = brute_force_ged(g1, g2, cm)
        for heuristic in (Heuristic.ZERO, Heuristic.COUNT_BOUND):
            res = astar_ged(g1, g2, cm, heuristic)
            assert res.cost == pytest.approx(want, abs=1e-9), (g1.edges(), g2.edges())
            assert_path_consistent(res, g1, g2)


def test_symmetry_on_random_pairs():
    rng = random.Random(101)
    for _ in range(40):
        g1 = random_graph(rng, n_max=4)
        g2 = random_graph(rng, n_max=4)
        assert astar_ged(g1, g2).cost == pytest.approx(astar_ged(g2, g1).cost, abs=1e-9)


def test_triangle_inequality_on_random_triples():
    rng = random.Random(103)
    for _ in range(30):
        gs = [random_graph(rng, n_max=4) for _ in range(3)]
        d01 = astar_ged(gs[0], gs[1]).cost
        d12 = astar_ged(gs[1], gs[2]).cost
        d02 = astar_ged(gs[0], gs[2]).cost
        assert d02 <= d01 + d12 + 1e-9


def test_beam_is_an_upper_bound():
    rng = random.Random(107)
    for trial in range(40):
        g1 = random_graph(rng, n_max=4, symbolic=trial % 2 == 0)
        g2 = random_graph(rng, n_max=4, symbolic=trial % 2 == 0)
        cm = MODELS[trial % len(MODELS)]
        exact = astar_ged(g1, g2, cm).cost
        last = None
        for w in (1, 3, 10):
            res = beam_ged(g1, g2, cm, w)
            assert res.cost >= exact - 1e-9
            assert res.path.complete
            assert_path_consistent(res, g1, g2)
            last = res.cost
        # a beam wider than the whole open set can never prune: exact result
        assert beam_ged(g1, g2, cm, 10**6).cost == pytest.approx(exact, abs=1e-9)
        assert last is not None


def test_beam_width_validation():
    with pytest.raises(ValueError):
        beam_ged(path_graph(2), path_graph(2), w=0)
    with pytest.raises(ValueError):
        SearchSpec.beam(0)
    with pytest.raises(ValueError):
        SearchSpec(kind="dfs")


def test_search_spec_rejects_inputs_it_would_ignore():
    with pytest.raises(ValueError, match="heuristic"):
        SearchSpec("beam", 3, Heuristic.COUNT_BOUND)  # beam runs without a heuristic
    with pytest.raises(ValueError, match="width"):
        SearchSpec("astar", 7)  # A* has no open-list width
    assert SearchSpec("beam", 3) == SearchSpec.beam(3)
    assert SearchSpec("astar", 0, Heuristic.COUNT_BOUND) == SearchSpec.astar(Heuristic.COUNT_BOUND)


def test_count_bound_heuristic_never_changes_the_answer():
    rng = random.Random(109)
    for _ in range(40):
        g1 = random_graph(rng, n_max=5, numeric_edge_p=0.3)
        g2 = random_graph(rng, n_max=5, numeric_edge_p=0.3)
        plain = astar_ged(g1, g2, heuristic=Heuristic.ZERO)
        guided = astar_ged(g1, g2, heuristic=Heuristic.COUNT_BOUND)
        assert guided.cost == pytest.approx(plain.cost, abs=1e-9)
        assert guided.expanded_nodes <= plain.expanded_nodes


def test_expanded_nodes_accounting():
    res = astar_ged(Graph(), complete_graph(3))
    assert res.expanded_nodes == 0  # nothing to expand when g1 is empty
    res = astar_ged(path_graph(3), path_graph(3))
    assert res.expanded_nodes == 3  # one expansion per mapped source node
    assert res.elapsed >= 0.0


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_ged(complete_graph(5), complete_graph(5))
    # 4 + 5 = 9 is still within the guard
    brute_force_ged(complete_graph(4), complete_graph(5))


def test_run_search_dispatch():
    g1, g2 = path_graph(3), cycle_graph(4)
    cm = CostModel()
    assert run_search(g1, g2, cm, SearchSpec.astar()).cost == astar_ged(g1, g2).cost
    assert run_search(g1, g2, cm, SearchSpec.beam(2)).cost == beam_ged(g1, g2, cm, 2).cost
    assert SearchSpec.astar().describe() == "astar"
    assert SearchSpec.beam(7).describe() == "beam(w=7)"


def test_t_ged_at_zero_equals_plain_search():
    g1, g2 = path_graph(4), cycle_graph(4)
    plain = astar_ged(g1, g2)
    t0 = t_centrality_ged(g1, g2, 0, CentralityMeasure.DEGREE)
    assert t0.cost == plain.cost
    assert t0.expanded_nodes == plain.expanded_nodes
    rep1, rep2 = t0.contraction_reports
    assert rep1.removed == [] and rep2.removed == []


def test_t_ged_contracts_both_sides():
    res = t_centrality_ged(path_graph(3), perturbed_p3(), 2, CentralityMeasure.DEGREE)
    # both graphs lose their leaves; the surviving centers match exactly
    assert res.cost == 0.0
    rep1, rep2 = res.contraction_reports
    assert rep1.removed_ids == [0, 2]
    assert rep2.removed_ids == [0, 2]
    assert rep1.result_order == rep2.result_order == 1


def test_t_ged_shrinks_the_search():
    g1 = star_graph(5)
    g2 = star_graph(4)
    g2.add_edge(1, 2)
    full = t_centrality_ged(g1, g2, 0, CentralityMeasure.DEGREE)
    cut = t_centrality_ged(g1, g2, 3, CentralityMeasure.DEGREE)
    assert cut.expanded_nodes < full.expanded_nodes
    assert cut.elapsed >= 0.0


@pytest.mark.parametrize("measure", list(CentralityMeasure))
def test_t_ged_zero_on_identical_graphs_any_measure(measure):
    g = cycle_graph(5)
    for t in (0, 1, 2, 4):
        res = t_centrality_ged(g, g.copy(), t, measure)
        assert res.cost == 0.0


def test_t_ged_beam_spec():
    res = t_centrality_ged(path_graph(4), cycle_graph(4), 1,
                           CentralityMeasure.PAGERANK, search=SearchSpec.beam(5))
    assert res.cost >= 0.0
    assert res.path.complete


def test_ged_result_json_shape():
    res = t_centrality_ged(path_graph(3), path_graph(3), 1, CentralityMeasure.DEGREE)
    d = res.to_json_dict()
    assert set(d) == {"cost", "path", "expanded_nodes", "elapsed_seconds",
                      "contraction_reports"}
    assert len(d["contraction_reports"]) == 2
    assert d["path"]["complete"] is True
    assert d["path"]["total_cost"] == d["cost"]
    plain = astar_ged(path_graph(2), path_graph(2)).to_json_dict()
    assert plain["contraction_reports"] is None


def test_numeric_edge_labels_priced_by_difference():
    g1 = Graph()
    g1.add_node("C"); g1.add_node("N"); g1.add_edge(0, 1, 1.0)
    g2 = Graph()
    g2.add_node("C"); g2.add_node("N"); g2.add_edge(0, 1, 3.0)
    assert astar_ged(g1, g2).cost == pytest.approx(2.0)
    # a mapped edge pair must be substituted, so with a pricey substitution
    # (5 * 2 = 10) the optimum reroutes one node instead: delete N and its
    # edge, insert both again (1 + 1 + 1 + 1 = 4)
    assert astar_ged(g1, g2, CostModel(y_edge=5.0)).cost == pytest.approx(4.0)
