"""Node contraction: hand traces, guards, and bulk invariants."""

import random

import pytest

from cged import CentralityMeasure, t_centrality_node_contraction
from cged.centrality import compute_centrality, rank_ascending
from cged.contraction import k_degree_node_contraction, k_star_node_contraction
from cged.evaluation import TLevel, t_star_levels
from cged.graph import Graph, is_cut_vertex_by_recount
from helpers import cycle_graph, path_graph, random_connected_graph, random_graph, star_graph

DEG = CentralityMeasure.DEGREE


def two_triangles_bridged() -> Graph:
    """Triangles {1,2,5} and {3,4,6} joined through middle node 0 (a cut vertex).

    Node 0 has degree 2 and the smallest id, so the ascending degree walk
    considers it first and must skip it.
    """
    return Graph.from_parts(None, None, [(i, "C") for i in range(7)],
                            [(1, 2, None), (1, 5, None), (2, 5, None),
                             (3, 4, None), (3, 6, None), (4, 6, None),
                             (5, 0, None), (0, 6, None)])


def test_t0_is_identity():
    g = star_graph(3)
    h, rep = t_centrality_node_contraction(g, 0, DEG)
    assert h == g and h is not g
    assert rep.removed == [] and rep.skipped_cut_vertices == []
    assert rep.result_order == 4
    assert rep.t_requested == 0


def test_empty_graph_identity():
    h, rep = t_centrality_node_contraction(Graph(), 5, DEG)
    assert h.order == 0
    assert rep.removed == []


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        t_centrality_node_contraction(path_graph(2), -1, DEG)


def test_p3_trace_removes_both_leaves_keeps_center():
    # ascending (score, id): leaves first; the last node is protected
    h, rep = t_centrality_node_contraction(path_graph(3), 3, DEG)
    assert rep.removed == [(0, 1.0), (2, 1.0)]
    assert rep.skipped_cut_vertices == []
    assert h.nodes() == [1]
    assert rep.result_order == 1


def test_star_trace_removes_two_lowest_id_leaves():
    h, rep = t_centrality_node_contraction(star_graph(4), 2, DEG)
    assert rep.removed == [(1, 1.0), (2, 1.0)]
    assert h.nodes() == [0, 3, 4]
    assert h.component_count() == 1


def test_cut_vertex_is_skipped_and_logged():
    g = two_triangles_bridged()
    h, rep = t_centrality_node_contraction(g, 1, DEG)
    assert rep.skipped_cut_vertices == [0]
    assert rep.removed == [(1, 2.0)]
    assert h.component_count() == g.component_count() == 1


def test_removed_scores_come_from_the_ranked_graph():
    _, rep = t_centrality_node_contraction(path_graph(4), 2, CentralityMeasure.BETWEENNESS)
    assert rep.removed == [(0, 0.0), (3, 0.0)]


def test_input_graph_is_untouched():
    g = cycle_graph(4)
    before = g.copy()
    t_centrality_node_contraction(g, 3, DEG)
    k_degree_node_contraction(g, 2)
    k_star_node_contraction(g, 3)
    t_star_levels(g)
    assert g == before


def test_isolated_node_is_never_removed():
    # deleting an isolated node would drop the component count
    g = Graph.from_parts(None, None, [(0, "C"), (1, "C"), (2, "C")], [(1, 2, None)])
    h, rep = t_centrality_node_contraction(g, 3, DEG)
    assert h.has_node(0)
    assert 0 in rep.skipped_cut_vertices
    assert h.component_count() == 2


def test_k_degree_p3_and_star():
    h, rep = k_degree_node_contraction(path_graph(3), 1)
    assert rep.removed_ids == [0, 2] and h.nodes() == [1]
    h, rep = k_degree_node_contraction(star_graph(4), 1)
    assert rep.removed_ids == [1, 2, 3, 4]
    assert h.nodes() == [0]
    assert rep.t_requested == 4


def test_k_degree_c4_trace():
    # all four nodes are candidates by input degree; deletions proceed in id
    # order while the graph stays connected, leaving a single node
    h, rep = k_degree_node_contraction(cycle_graph(4), 2)
    assert rep.removed_ids == [0, 1, 2]
    assert rep.skipped_cut_vertices == [3]
    assert h.nodes() == [3]
    assert rep.result_order == 1


def test_k_degree_no_candidates():
    g = cycle_graph(4)
    h, rep = k_degree_node_contraction(g, 5)
    assert h == g
    assert rep.t_requested == 0 and rep.removed == []
    with pytest.raises(ValueError):
        k_degree_node_contraction(g, 0)


def test_k_star_equals_k_degree_at_one():
    g = random_graph(random.Random(5), n_max=8)
    h1, r1 = k_star_node_contraction(g, 1)
    h2, r2 = k_degree_node_contraction(g, 1)
    assert h1 == h2
    assert r1.removed == r2.removed


def test_k_star_p4_trace():
    # pass 1 strips both leaves; pass 2 finds no degree-2 nodes in the P2 left
    h, rep = k_star_node_contraction(path_graph(4), 2)
    assert rep.removed == [(0, 1.0), (3, 1.0)]
    assert h.nodes() == [1, 2]
    assert h.size == 1


def test_k_star_pass_tagging():
    # C4: pass 1 is a no-op, pass 2 removes three nodes tagged with their pass
    _, rep = k_star_node_contraction(cycle_graph(4), 2)
    assert rep.removed == [(0, 2.0), (1, 2.0), (2, 2.0)]


def test_t_star_values():
    # budgets at T0, T1*, T2*, T3*: the size of a degree-1..k chain at Tk*
    def budgets(g):
        return [t_star_levels(g)[level] for level in TLevel]

    assert budgets(path_graph(3)) == [0, 2, 2, 2]
    assert budgets(cycle_graph(4)) == [0, 0, 3, 3]
    assert budgets(star_graph(4))[1] == 4


def test_iterated_k_star_reaches_a_fixed_point():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, n_max=9, n_min=1, edge_p=0.35)
        h = g
        for _ in range(g.order + 1):
            kmax = max((h.degree(u) for u in h.nodes()), default=0)
            nxt, rep = k_star_node_contraction(h, max(1, kmax))
            if not rep.removed:
                break
            h = nxt
        kmax = max((h.degree(u) for u in h.nodes()), default=0)
        again, rep = k_star_node_contraction(h, max(1, kmax))
        assert rep.removed == [] and again == h


def test_report_json_shape():
    _, rep = t_centrality_node_contraction(two_triangles_bridged(), 2, DEG)
    d = rep.to_json_dict()
    assert d["measure"] == "degree"
    assert d["t_requested"] == 2
    assert d["removed"] == [{"node": 1, "score": 2.0}, {"node": 2, "score": 2.0}]
    assert d["skipped_cut_vertices"] == [0]
    assert d["result_order"] == 5


@pytest.mark.parametrize("measure", list(CentralityMeasure))
def test_bulk_invariants_all_measures(measure):
    rng = random.Random(1 + sorted(m.value for m in CentralityMeasure).index(measure.value))
    for _ in range(40):
        g = random_graph(rng, n_max=9, edge_p=rng.uniform(0.15, 0.6))
        t = rng.randint(0, g.order + 2)
        h, rep = t_centrality_node_contraction(g, t, measure)
        assert h.component_count() == g.component_count()
        assert len(rep.removed) <= t
        assert h.order == g.order - len(rep.removed)
        assert rep.result_order == h.order
        removed = set(rep.removed_ids)
        assert removed.isdisjoint(rep.skipped_cut_vertices)
        for u in g.nodes():
            if u in removed:
                assert not h.has_node(u)
            else:
                assert h.node_label(u) == g.node_label(u)
        # deterministic: the same call yields the same report and graph
        h2, rep2 = t_centrality_node_contraction(g, t, measure)
        assert h2 == h and rep2 == rep


def test_full_budget_on_connected_graphs():
    # with t = |V| the walk runs to exhaustion: whatever survives was either
    # skipped as a cut vertex or is the protected last node
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9))
        h, rep = t_centrality_node_contraction(g, g.order, DEG)
        assert h.component_count() == 1
        if h.order > 1:
            assert set(h.nodes()) <= set(rep.skipped_cut_vertices)


@pytest.mark.parametrize("measure", list(CentralityMeasure))
def test_smaller_budget_removes_a_prefix_of_the_full_walk(measure):
    # the ranking is taken once, on the input graph, so a walk at budget t
    # stops where the walk at budget n has made its first t deletions
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, n_max=9, edge_p=rng.uniform(0.15, 0.6))
        full = t_centrality_node_contraction(g, g.order, measure)[1].removed_ids
        for t in range(g.order + 1):
            h, rep = t_centrality_node_contraction(g, t, measure)
            assert rep.removed_ids == full[:t]
            expected = g.copy()
            for u in full[:t]:
                expected.delete_node(u)
            assert h == expected


def _replay(g: Graph, candidates: list[int], rep) -> int:
    """Walk the candidates on a copy of g and check each one's fate against
    the recount oracle: removed nodes had a neighbour and were not cut
    vertices at their turn, skipped ones failed that test, and once the walk
    stops every later candidate is left alone. Returns how many candidates
    the walk decided."""
    work = g.copy()
    removed, skipped = list(rep.removed_ids), list(rep.skipped_cut_vertices)
    decided = 0
    for u in candidates:
        deletable = work.degree(u) > 0 and not is_cut_vertex_by_recount(work, u)
        if removed and removed[0] == u:
            assert deletable, (g.edges(), u)
            work.delete_node(u)
            removed.pop(0)
        elif skipped and skipped[0] == u:
            assert not deletable, (g.edges(), u)
            skipped.pop(0)
        else:
            break
        decided += 1
    assert removed == [] and skipped == [], (g.edges(), rep)
    return decided


def _replay_graphs() -> list[Graph]:
    rng = random.Random(808)
    graphs = [Graph(), path_graph(1), Graph.from_parts(None, None, [(0, "C"), (1, "C")], [])]
    graphs += [random_graph(rng, n_max=9, edge_p=rng.uniform(0.1, 0.6)) for _ in range(40)]
    graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(20)]
    return graphs


def _counting_articulation_points(monkeypatch) -> list[int]:
    calls = [0]
    original = Graph.articulation_points

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Graph, "articulation_points", counted)
    return calls


@pytest.mark.parametrize("measure", list(CentralityMeasure))
def test_walk_replays_against_the_recount_oracle(measure, monkeypatch):
    calls = _counting_articulation_points(monkeypatch)
    for g in _replay_graphs():
        ranking = rank_ascending(compute_centrality(g, measure))
        for t in range(g.order + 2):
            calls[0] = 0
            h, rep = t_centrality_node_contraction(g, t, measure)
            # one articulation pass up front and one after each deletion, none
            # when there is nothing to walk
            assert calls[0] == (0 if t == 0 or g.order == 0 else 1 + len(rep.removed))
            decided = _replay(g, ranking, rep)
            assert len(rep.removed) <= t
            if decided < len(ranking):  # it stops only at t, or at n - 1 deletions
                assert len(rep.removed) == min(t, g.order - 1)
            if rep.removed and len(rep.removed) == g.order - 1:
                # down to one node, the walk ends without logging that node
                assert decided == ranking.index(rep.removed_ids[-1]) + 1
            assert h.nodes() == sorted(set(g.nodes()) - set(rep.removed_ids))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_degree_walk_replays_against_the_recount_oracle(k, monkeypatch):
    calls = _counting_articulation_points(monkeypatch)
    for g in _replay_graphs():
        candidates = [u for u in g.nodes() if g.degree(u) == k]
        calls[0] = 0
        h, rep = k_degree_node_contraction(g, k)
        assert calls[0] == 1 + len(rep.removed)
        # the degree walk has no budget to stop it: every candidate is decided
        assert _replay(g, candidates, rep) == len(candidates)
        assert h.nodes() == sorted(set(g.nodes()) - set(rep.removed_ids))
