"""Centrality measures against hand values and independent numeric oracles."""

import json
import math
import random
from pathlib import Path

import networkx as nx
import pytest

from cged import CentralityMeasure
from cged.centrality import (
    CentralityScores,
    betweenness_centrality,
    compute_centrality,
    degree_centrality,
    eigenvector_centrality,
    pagerank_centrality,
    rank_ascending,
)
from cged.dataset import synthesize_letter_like
from cged.graph import Graph
from helpers import (
    adjacency_matrix,
    betweenness_by_path_enumeration,
    complete_graph,
    cycle_graph,
    eigenvector_by_dense_solver,
    pagerank_by_linear_solve,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)

BETWEENNESS_GOLDEN = Path(__file__).parent / "data" / "betweenness_golden.json"


def eigen_residual(g: Graph, scores: dict[int, float]) -> float:
    """Worst |A x - kappa x| entry over the components, kappa the Rayleigh quotient."""
    worst = 0.0
    for block in g.connected_components():
        ids = sorted(block)
        x = [scores[u] for u in ids]
        ax = adjacency_matrix(g, ids) @ x
        kappa = float(ax @ x)
        worst = max(worst, max(abs(ax[i] - kappa * x[i]) for i in range(len(ids))))
    return worst


def test_degree_hand_cases():
    assert degree_centrality(path_graph(3)).scores == {0: 1.0, 1: 2.0, 2: 1.0}
    assert degree_centrality(cycle_graph(4)).scores == {u: 2.0 for u in range(4)}
    assert degree_centrality(Graph()).scores == {}


def test_betweenness_hand_cases():
    assert betweenness_centrality(path_graph(3)).scores == {0: 0.0, 1: 1.0, 2: 0.0}
    # C4: each opposite pair has two shortest routes, each midpoint carries 1/2
    assert betweenness_centrality(cycle_graph(4)).scores == {u: 0.5 for u in range(4)}
    # star center sits on every one of the C(4,2) leaf pairs
    scores = betweenness_centrality(star_graph(4)).scores
    assert scores[0] == 6.0
    assert all(scores[u] == 0.0 for u in range(1, 5))
    assert betweenness_centrality(path_graph(4)).scores == {0: 0.0, 1: 2.0, 2: 2.0, 3: 0.0}


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(31)
    for _ in range(120):
        g = random_graph(rng, n_max=8, edge_p=rng.uniform(0.2, 0.7))
        got = betweenness_centrality(g).scores
        want = betweenness_by_path_enumeration(g)
        assert got.keys() == want.keys()
        for u in want:
            assert got[u] == pytest.approx(want[u], abs=1e-9), g.edges()


def test_betweenness_disconnected_pairs_contribute_zero():
    g = Graph()
    for _ in range(6):
        g.add_node("C")
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        g.add_edge(u, v)
    scores = betweenness_centrality(g).scores
    assert scores == {0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0, 4: 1.0, 5: 0.0}


def test_eigenvector_c4_uniform():
    scores = eigenvector_centrality(cycle_graph(4)).scores
    for u in range(4):
        assert scores[u] == pytest.approx(0.5, abs=1e-12)


def test_eigenvector_single_node_convention():
    g = Graph()
    g.add_node("C")
    assert eigenvector_centrality(g).scores == {0: 1.0}


def test_eigenvector_p3_center_ratio():
    scores = eigenvector_centrality(path_graph(3)).scores
    assert scores[1] == pytest.approx(math.sqrt(2) * scores[0], abs=1e-12)
    assert scores[0] == pytest.approx(scores[2], abs=1e-12)
    assert scores[0] == pytest.approx(0.5, abs=1e-12)


def test_eigenvector_residual_norm_and_sign():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, n_max=9, n_min=1, edge_p=rng.uniform(0.2, 0.6))
        res = eigenvector_centrality(g)
        assert all(v >= 0.0 for v in res.scores.values())
        for block in g.connected_components():
            norm = math.sqrt(sum(res.scores[u] ** 2 for u in block))
            assert norm == pytest.approx(1.0, abs=1e-12)
        assert eigen_residual(g, res.scores) <= 1e-12


def test_eigenvector_matches_dense_solver():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng, n_max=8, n_min=1, edge_p=0.5)
        got = eigenvector_centrality(g).scores
        want = eigenvector_by_dense_solver(g)
        for u in want:
            assert got[u] == pytest.approx(want[u], abs=1e-12), g.edges()


def test_eigenvector_bipartite_converges():
    # plain power iteration oscillates on bipartite graphs, whose spectrum is
    # symmetric; the eigensolve must still return the principal eigenvector
    for g in (path_graph(2), path_graph(3), cycle_graph(4), star_graph(5)):
        assert eigen_residual(g, eigenvector_centrality(g).scores) <= 1e-12


def test_eigenvector_empty_graph():
    assert eigenvector_centrality(Graph()).scores == {}


def test_pagerank_regular_graphs_uniform():
    for g in (cycle_graph(5), complete_graph(4)):
        scores = pagerank_centrality(g).scores
        n = g.order
        for u in g.nodes():
            assert scores[u] == pytest.approx(1.0 / n, abs=1e-12)


def test_pagerank_isolated_node_gets_gamma():
    g = Graph()
    g.add_node("C")
    assert pagerank_centrality(g).scores[0] == (1.0 - 0.85) / 1
    # beside a P3, with gamma = (1 - alpha) / n at n = 4
    g = Graph.from_parts(None, None, [(i, "C") for i in range(4)],
                         [(1, 2, None), (2, 3, None)])
    assert pagerank_centrality(g).scores[0] == (1.0 - 0.85) / 4


def test_pagerank_p3_frozen_linear_solve_values():
    # fixed point of the 3x3 system at alpha=0.85, gamma=(1-alpha)/3=0.05:
    # leaves 19/74, center 18/37 (fractions from the independent solve)
    scores = pagerank_centrality(path_graph(3)).scores
    assert scores[0] == pytest.approx(19 / 74, abs=1e-12)
    assert scores[1] == pytest.approx(18 / 37, abs=1e-12)
    assert scores[2] == pytest.approx(19 / 74, abs=1e-12)
    oracle = pagerank_by_linear_solve(path_graph(3), alpha=0.85, gamma=0.05)
    assert oracle[0] == pytest.approx(19 / 74, abs=1e-12)
    assert oracle[1] == pytest.approx(18 / 37, abs=1e-12)


def test_pagerank_matches_linear_solve_oracle():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng, n_max=9, n_min=1, edge_p=rng.uniform(0.2, 0.6))
        got = pagerank_centrality(g).scores
        want = pagerank_by_linear_solve(g)
        for u in want:
            assert got[u] == pytest.approx(want[u], abs=1e-12), g.edges()


def test_pagerank_sums_to_one_on_connected_graphs():
    # with gamma = (1 - alpha)/n no mass leaks once every node has a neighbor
    rng = random.Random(71)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9))
        scores = pagerank_centrality(g).scores
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)
        gamma = (1.0 - 0.85) / g.order
        assert all(v >= gamma - 1e-12 for v in scores.values())


def test_rank_ascending_tie_break():
    s = degree_centrality(path_graph(3))
    assert rank_ascending(s) == [0, 2, 1]
    s = degree_centrality(cycle_graph(4))
    assert rank_ascending(s) == [0, 1, 2, 3]
    assert rank_ascending(degree_centrality(Graph())) == []


def test_rank_is_permutation():
    rng = random.Random(83)
    for _ in range(30):
        g = random_graph(rng, n_max=8, edge_p=0.4)
        for measure in CentralityMeasure:
            order = rank_ascending(compute_centrality(g, measure))
            assert sorted(order) == g.nodes()


def test_compute_centrality_dispatch():
    g = star_graph(3)
    for measure in CentralityMeasure:
        res = compute_centrality(g, measure)
        assert res.measure is measure
        assert res.scores.keys() == {0, 1, 2, 3}
        assert all(math.isfinite(v) for v in res.scores.values())


def test_symmetric_nodes_rank_by_id_under_every_measure():
    # symmetric nodes score the same up to solver noise; the ranking must
    # then fall back to ids under every measure
    for g in (cycle_graph(5), cycle_graph(6), complete_graph(4)):
        for measure in CentralityMeasure:
            assert rank_ascending(compute_centrality(g, measure)) == g.nodes(), measure
    for measure in CentralityMeasure:
        # the five leaves tie, and each is less central than the center
        assert rank_ascending(compute_centrality(star_graph(5), measure)) == \
            [1, 2, 3, 4, 5, 0], measure


def test_rank_ignores_relative_noise_of_1e_12():
    rng = random.Random(89)
    graphs = synthesize_letter_like(42, 200, 8, 0.3)
    for g in graphs:
        for measure in (CentralityMeasure.EIGENVECTOR, CentralityMeasure.PAGERANK):
            res = compute_centrality(g, measure)
            noisy = CentralityScores(measure, {
                u: v * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0))
                for u, v in res.scores.items()})
            assert rank_ascending(noisy) == rank_ascending(res), (g.edges(), measure)


def test_rank_merges_no_distinct_betweenness_or_degree_scores():
    # on the betweenness golden graphs the rounded key orders exactly like
    # the raw (score, id) key, so rounding ties nothing that differs
    for row in json.loads(BETWEENNESS_GOLDEN.read_text(encoding="utf-8")):
        g = Graph.from_parts(None, None, [(u, "C") for u in row["nodes"]],
                             [(u, v, None) for u, v in row["edges"]])
        for res in (betweenness_centrality(g), degree_centrality(g)):
            raw = sorted(res.scores, key=lambda u: (res.scores[u], u))
            assert rank_ascending(res) == raw, (row, res.measure)


def test_eigenvector_and_pagerank_match_networkx():
    # connected graphs have no dangling nodes, so networkx's PageRank solves
    # the same system; its solvers iterate, ours do not
    rng = random.Random(97)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.0, 0.5))
        h = nx.Graph((u, v) for u, v, _ in g.edges())
        pairs = (
            (pagerank_centrality(g).scores,
             nx.pagerank(h, alpha=0.85, tol=1e-14, max_iter=10_000)),
            (eigenvector_centrality(g).scores,
             nx.eigenvector_centrality(h, tol=1e-14, max_iter=10_000)),
        )
        for got, want in pairs:
            for u in g.nodes():
                assert got[u] == pytest.approx(want[u], abs=1e-10), (g.edges(), u)
