"""Edit-distance search: exact values, oracle agreement, bounds, pipelines."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cged import CentralityMeasure, CostModel, astar_ged, beam_ged, kernels, t_centrality_ged
from cged.centrality import compute_centrality
from cged.costs import OpKind
from cged.ged import (
    Heuristic,
    SearchSpec,
    bipartite_lower_bound,
    hausdorff_lower_bound,
    run_search,
)
from cged.graph import Graph, Point2D
from helpers import (
    assert_path_consistent,
    brute_force_ged,
    complete_graph,
    cycle_graph,
    padded_bipartite_bound,
    path_graph,
    random_connected_graph,
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
        for heuristic in Heuristic:
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
        # a beam wider than the whole open set never prunes, so it pops what
        # unguided A* pops: the same cost, edit path and expansion count
        wide = beam_ged(g1, g2, cm, 10**6)
        plain = astar_ged(g1, g2, cm, Heuristic.ZERO)
        assert wide.cost == plain.cost == pytest.approx(exact, abs=1e-9)
        assert wide.path.operations == plain.path.operations
        assert wide.expanded_nodes == plain.expanded_nodes
        assert last is not None


def test_beam_width_validation():
    with pytest.raises(ValueError):
        beam_ged(path_graph(2), path_graph(2), w=0)
    with pytest.raises(ValueError):
        SearchSpec.beam(0)
    # nan would never prune, 2.5 would fail mid-search, True would print as
    # beam(w=True): only an int >= 1 is a width
    for bad in (float("nan"), 2.5, True):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            beam_ged(path_graph(2), path_graph(2), w=bad)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            SearchSpec.beam(bad)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            SearchSpec(bad)


def test_search_spec_rejects_inputs_it_would_ignore():
    with pytest.raises(ValueError, match="heuristic"):
        SearchSpec(3, Heuristic.BIPARTITE)  # beam runs without a heuristic
    assert SearchSpec(3) == SearchSpec.beam(3) == SearchSpec(3, Heuristic.ZERO)
    assert SearchSpec() == SearchSpec.astar() == SearchSpec.astar(Heuristic.BIPARTITE)
    assert SearchSpec(None, Heuristic.ZERO) == SearchSpec.astar(Heuristic.ZERO)
    assert SearchSpec.astar().heuristic is Heuristic.BIPARTITE
    assert SearchSpec.beam(3).heuristic is Heuristic.ZERO


@pytest.mark.parametrize("bad", ["bipartite", None, "zero", 1])
def test_a_heuristic_that_is_not_a_member_fails(bad):
    # compared by identity, such a value used to run the unguided search:
    # 16,869 expansions on this pair instead of 19
    rng = random.Random(3)
    g1, g2 = random_connected_graph(rng, 8), random_connected_graph(rng, 8)
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        astar_ged(g1, g2, heuristic=bad)
    if bad is not None:  # None is SearchSpec's default: A*'s or beam's own heuristic
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            SearchSpec(None, bad)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            SearchSpec(3, bad)


def test_a_cost_model_of_another_type_fails_before_any_search(monkeypatch):
    # {} and 0 are not taken for the default model, and a tuple of the four
    # costs is no model either
    calls = []
    search = kernels.search
    monkeypatch.setattr(kernels, "search", lambda *args: calls.append(args) or search(*args))
    g1, g2 = path_graph(3), cycle_graph(4)
    for bad in ({}, 0, (1.0, 1.0, 1.0, 1.0)):
        for run in (lambda: astar_ged(g1, g2, bad), lambda: beam_ged(g1, g2, bad),
                    lambda: t_centrality_ged(g1, g2, 1, CentralityMeasure.DEGREE, bad)):
            with pytest.raises(ValueError, match=re.escape(f"cm must be a CostModel, got {bad!r}")):
                run()
    assert calls == []
    assert astar_ged(g1, g2, None).cost == astar_ged(g1, g2, CostModel()).cost
    assert len(calls) == 2


def test_bipartite_heuristic_never_changes_the_answer():
    rng = random.Random(109)
    for _ in range(40):
        g1 = random_graph(rng, n_max=5, numeric_edge_p=0.3)
        g2 = random_graph(rng, n_max=5, numeric_edge_p=0.3)
        plain = astar_ged(g1, g2, heuristic=Heuristic.ZERO)
        guided = astar_ged(g1, g2)
        assert guided.cost == pytest.approx(plain.cost, abs=1e-9)
        assert guided.expanded_nodes <= plain.expanded_nodes
        assert_path_consistent(guided, g1, g2)


@pytest.mark.parametrize("seed", range(4))
def test_bipartite_solves_ten_node_pairs_in_few_expansions(seed):
    # a node- and edge-count bound needed about 280k expansions at this size
    rng = random.Random(2000 + seed)
    g1, g2 = random_connected_graph(rng, 10), random_connected_graph(rng, 10)
    res = astar_ged(g1, g2)
    assert res.expanded_nodes <= 1000
    assert_path_consistent(res, g1, g2)
    assert bipartite_lower_bound(g1, g2, CostModel()) <= res.cost + 1e-9


def test_expanded_nodes_accounting():
    res = astar_ged(Graph(), complete_graph(3))
    assert res.expanded_nodes == 0  # nothing to expand when g1 is empty
    res = astar_ged(path_graph(3), path_graph(3))
    assert res.expanded_nodes == 3  # one expansion per mapped source node
    assert res.elapsed >= 0.0


@pytest.mark.parametrize("search", [SearchSpec.astar(Heuristic.ZERO), SearchSpec.astar(),
                                    SearchSpec.beam(1)], ids=SearchSpec.describe)
def test_empty_source_inserts_the_whole_target_in_id_order(search):
    g2 = Graph()
    for symbol in "CON":
        g2.add_node(symbol)
    g2.add_edge(0, 2, 1.5)
    g2.add_edge(1, 2)
    cm = MODELS[1]
    res = run_search(Graph(), g2, cm, search)
    assert res.cost == pytest.approx(3 * cm.x_node + 2 * cm.x_edge, abs=1e-12)
    assert res.expanded_nodes == 0
    assert [(op.kind, op.source, op.target) for op in res.path.operations] == [
        (OpKind.NODE_INS, None, 0), (OpKind.NODE_INS, None, 1), (OpKind.NODE_INS, None, 2),
        (OpKind.EDGE_INS, None, (0, 2)), (OpKind.EDGE_INS, None, (1, 2))]


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
    assert SearchSpec.astar().describe() == "astar(bipartite)"
    assert SearchSpec.astar(Heuristic.ZERO).describe() == "astar(zero)"
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


# ----------------------------------------------------------------------
# bipartite lower bound
# ----------------------------------------------------------------------

BOUND_MODELS = MODELS + [
    CostModel(x_node=0.0, y_node=1.0, x_edge=1.0, y_edge=1.0),
    CostModel(x_node=1.0, y_node=0.5, x_edge=0.7, y_edge=25.0),
    CostModel(x_node=0.3, y_node=4.0, x_edge=3.0, y_edge=0.0),
]

NODE_LABELS = {
    "coordinate": st.builds(Point2D, st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    "symbolic": st.sampled_from("CNOS"),
}
NODE_LABELS["mixed"] = st.one_of(NODE_LABELS["coordinate"], NODE_LABELS["symbolic"])
EDGE_LABELS = st.one_of(st.none(), st.integers(1, 3), st.floats(0.0, 4.0))


@st.composite
def labelled_graphs(draw, max_nodes):
    """Coordinate, symbolic or mixed node labels; None, int or fractional edges."""
    labels = NODE_LABELS[draw(st.sampled_from(sorted(NODE_LABELS)))]
    g = Graph()
    for _ in range(draw(st.integers(0, max_nodes))):
        g.add_node(draw(labels))
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(EDGE_LABELS))
    return g


@settings(max_examples=400, deadline=None)
@given(g1=labelled_graphs(max_nodes=5), g2=labelled_graphs(max_nodes=4),
       cm=st.sampled_from(BOUND_MODELS))
def test_bipartite_bound_never_exceeds_brute_force(g1, g2, cm):
    bound = bipartite_lower_bound(g1, g2, cm)
    assert 0.0 <= bound <= brute_force_ged(g1, g2, cm) + 1e-9


@settings(max_examples=300, deadline=None)
@given(g1=labelled_graphs(max_nodes=5), g2=labelled_graphs(max_nodes=4),
       cm=st.sampled_from(BOUND_MODELS))
def test_default_exact_search_equals_brute_force(g1, g2, cm):
    res = astar_ged(g1, g2, cm)
    assert res.cost == pytest.approx(brute_force_ged(g1, g2, cm), abs=1e-9)
    assert res.cost == pytest.approx(astar_ged(g1, g2, cm, Heuristic.ZERO).cost, abs=1e-9)
    assert_path_consistent(res, g1, g2)


def test_bipartite_bound_never_exceeds_astar_on_larger_pairs():
    rng = random.Random(61)
    for trial in range(16):
        g1 = random_connected_graph(rng, 6 + trial % 4)
        g2 = g1.copy()  # a near copy keeps exact search on 9 nodes quick
        g2.delete_node(rng.choice(g2.nodes()))
        for _ in range(2):
            u, v = rng.sample(g2.nodes(), 2)
            if not g2.has_edge(u, v):
                g2.add_edge(u, v, float(trial % 3) if trial % 3 else None)
        if trial % 2:
            g2.add_edge(rng.choice(g2.nodes()),
                        g2.add_node(Point2D(rng.uniform(0.0, 2.0), 1.0)))
        cm = BOUND_MODELS[trial % len(BOUND_MODELS)]
        exact = astar_ged(g1, g2, cm).cost
        assert bipartite_lower_bound(g1, g2, cm) <= exact + 1e-9
        assert bipartite_lower_bound(g2, g1, cm) <= exact + 1e-9
    for n in (6, 7, 8, 9):  # unrelated pairs, at most 6 nodes on the other side
        g1, g2 = random_connected_graph(rng, n), random_connected_graph(rng, 6)
        for cm in BOUND_MODELS[:2]:
            exact = astar_ged(g1, g2, cm).cost
            assert bipartite_lower_bound(g1, g2, cm) <= exact + 1e-9


@settings(max_examples=300, deadline=None)
@given(g1=labelled_graphs(max_nodes=7), g2=labelled_graphs(max_nodes=7),
       cm=st.sampled_from(BOUND_MODELS))
def test_bipartite_bound_equals_the_padded_assignment(g1, g2, cm):
    # the reduced n1 x n2 matrix gives the (n1 + n2)-square padded optimum
    want = padded_bipartite_bound(g1, g2, cm)
    assert bipartite_lower_bound(g1, g2, cm) == pytest.approx(want, abs=1e-12)


def test_bipartite_bound_hand_cases():
    k2 = path_graph(2)
    # two node insertions and one edge insertion, half the edge at each end
    assert bipartite_lower_bound(Graph(), k2, CostModel()) == 3.0
    assert bipartite_lower_bound(k2, Graph(), CostModel(x_node=2.0, x_edge=0.5)) == 4.5
    assert bipartite_lower_bound(Graph(), Graph(), CostModel()) == 0.0
    # a star against its centre: the centre maps onto it, and each leaf is
    # deleted with half its edge, plus half of each edge at the centre
    assert bipartite_lower_bound(star_graph(3), path_graph(1), CostModel()) == 6.0
    assert brute_force_ged(star_graph(3), path_graph(1)) == 6.0


@pytest.mark.parametrize("cm", BOUND_MODELS)
def test_bipartite_bound_is_zero_for_a_copy(cm):
    rng = random.Random(67)
    graphs = [Graph(), path_graph(1), star_graph(4), complete_graph(5)]
    graphs += [random_graph(rng, n_max=8, symbolic=k % 2 == 0, numeric_edge_p=0.5)
               for k in range(12)]
    for g in graphs:
        assert bipartite_lower_bound(g, g.copy(), cm) == 0.0


# ----------------------------------------------------------------------
# Hausdorff lower bound
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(g1=labelled_graphs(max_nodes=5), g2=labelled_graphs(max_nodes=4),
       cm=st.sampled_from(BOUND_MODELS))
def test_hausdorff_bound_never_exceeds_the_bipartite_bound(g1, g2, cm):
    exact = brute_force_ged(g1, g2, cm)
    for a, b in ((g1, g2), (g2, g1)):
        bound = hausdorff_lower_bound(a, b, cm)
        assert 0.0 <= bound <= bipartite_lower_bound(a, b, cm) + 1e-12 <= exact + 1e-9


@pytest.mark.parametrize("cm", BOUND_MODELS)
def test_hausdorff_bound_exact_cases(cm):
    rng = random.Random(71)
    graphs = [Graph(), path_graph(1), star_graph(4), complete_graph(5)]
    graphs += [random_graph(rng, n_max=8, symbolic=k % 2 == 0, numeric_edge_p=0.5)
               for k in range(12)]
    for g in graphs:
        assert hausdorff_lower_bound(g, g.copy(), cm) == 0.0
        # against an empty graph every node is deleted or inserted with all its edges
        want = cm.x_node * g.order + cm.x_edge * g.size
        assert hausdorff_lower_bound(Graph(), g, cm) == pytest.approx(want, abs=1e-12)
        assert hausdorff_lower_bound(g, Graph(), cm) == pytest.approx(want, abs=1e-12)
    assert hausdorff_lower_bound(Graph(), Graph(), cm) == 0.0


def test_hausdorff_bound_hand_case():
    star, lone = Graph(), Graph()
    centre = star.add_node("C")
    for _ in range(3):
        star.add_edge(centre, star.add_node("C"))
    lone.add_node("C")
    # every cell is a degree gap at half an edge: each leaf pays half its
    # cell, 0.25; the centre half of its gap of 3, 0.75; the lone node half
    # a leaf's cell, 0.25. The assignment maps the centre and deletes the
    # leaves with their edges, as the edit distance does.
    assert hausdorff_lower_bound(star, lone, CostModel()) == 1.75
    assert hausdorff_lower_bound(lone, star, CostModel()) == 1.75
    assert bipartite_lower_bound(star, lone, CostModel()) == 6.0
    assert brute_force_ged(star, lone) == 6.0
    # relabelled, each cell costs 1 more: 1.25 + 3 * 0.75 + 0.75
    other = Graph()
    other.add_node("N")
    assert hausdorff_lower_bound(star, other, CostModel()) == 4.25


def test_hausdorff_bound_prices_labels_like_substitution():
    origin, far, symbol = Graph(), Graph(), Graph()
    origin.add_node(Point2D(0.0, 0.0))
    far.add_node(Point2D(3.0, 4.0))
    symbol.add_node("C")
    cm = CostModel(y_node=0.2)
    # each node pays half of the one cell, 0.2 times the label distance
    assert hausdorff_lower_bound(origin, far, cm) == pytest.approx(1.0, abs=1e-12)
    assert hausdorff_lower_bound(far, symbol, cm) == pytest.approx(0.2, abs=1e-12)
    # at the default costs the cell is dearer than deleting and inserting
    assert hausdorff_lower_bound(origin, far, CostModel()) == 2.0


def test_searches_bounds_and_centrality_leave_the_memo_empty():
    # what they derive lives in the array form; the memo is evaluation's own
    rng = random.Random(83)
    for symbolic in (True, False):
        g1 = random_graph(rng, n_min=3, n_max=7, symbolic=symbolic)
        g2 = random_graph(rng, n_min=3, n_max=7, symbolic=symbolic)
        astar_ged(g1, g2)
        beam_ged(g1, g2, w=3)
        bipartite_lower_bound(g1, g2, CostModel())
        hausdorff_lower_bound(g1, g2, CostModel())
        for measure in CentralityMeasure:
            compute_centrality(g1, measure)
        assert g1._memo == {} and g2._memo == {}
