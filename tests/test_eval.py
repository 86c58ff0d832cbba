"""Benchmark harness and nearest-neighbor classification."""

import csv
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from cged import CentralityMeasure, evaluation, t_centrality_node_contraction
from cged.costs import CostModel
from cged.dataset import Corpus, split_corpus, synthesize_letter_like
from cged.evaluation import (
    BenchmarkRecord,
    TLevel,
    nn_classify,
    parse_level,
    run_timing_benchmark,
    sample_pairs,
    summarize_benchmark,
    t_star_levels,
    write_benchmark_csv,
)
from cged.ged import SearchSpec, bipartite_lower_bound, run_search
from cged.graph import Graph, Point2D
from helpers import cycle_graph, path_graph

DEG = CentralityMeasure.DEGREE
ALL_LEVELS = [TLevel.T0, TLevel.T1STAR, TLevel.T2STAR, TLevel.T3STAR]


def record_key(r: BenchmarkRecord):
    # everything except the wall-clock field
    return (r.pair_id, r.measure, r.t_level, r.t_used_1, r.t_used_2,
            r.search, r.cost, r.expanded_nodes)


def test_t_star_levels_hand_cases():
    assert t_star_levels(cycle_graph(4)) == {
        TLevel.T0: 0, TLevel.T1STAR: 0, TLevel.T2STAR: 3, TLevel.T3STAR: 3}
    assert t_star_levels(path_graph(3)) == {
        TLevel.T0: 0, TLevel.T1STAR: 2, TLevel.T2STAR: 2, TLevel.T3STAR: 2}
    g = Graph()
    g.add_node("C")
    assert set(t_star_levels(g).values()) == {0}


def test_parse_level():
    assert parse_level("T0") is TLevel.T0
    assert parse_level("t1*") is TLevel.T1STAR
    assert parse_level("T2star") is TLevel.T2STAR
    assert parse_level(" t3 ") is TLevel.T3STAR
    with pytest.raises(ValueError):
        parse_level("T9")


def test_sample_pairs():
    pairs = sample_pairs(10, 25, seed=4)
    assert len(pairs) == 25
    assert all(0 <= i < 10 and 0 <= j < 10 and i != j for i, j in pairs)
    assert pairs == sample_pairs(10, 25, seed=4)
    assert pairs != sample_pairs(10, 25, seed=5)
    assert sample_pairs(1, 3, seed=0) == [(0, 0)] * 3


def test_benchmark_grid_and_ordering():
    corpus = synthesize_letter_like(seed=21, count=10, classes=2, distortion=0.3)
    measures = [CentralityMeasure.PAGERANK, DEG]  # intentionally unsorted
    levels = [TLevel.T1STAR, TLevel.T0]
    records = run_timing_benchmark(corpus, measures, levels,
                                   SearchSpec.astar(), sample=5, seed=9)
    assert len(records) == 5 * 2 * 2
    keys = [(r.pair_id, r.measure.value, ALL_LEVELS.index(r.t_level)) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.search == "astar(bipartite)"
        assert r.cost >= 0.0 and r.expanded_nodes >= 0
        assert r.t_level is TLevel.T0 or r.t_used_1 >= 0


def test_benchmark_t0_cost_identical_across_measures():
    corpus = synthesize_letter_like(seed=22, count=8, classes=2, distortion=0.3)
    records = run_timing_benchmark(corpus, list(CentralityMeasure), [TLevel.T0],
                                   SearchSpec.astar(), sample=4, seed=1)
    by_pair = {}
    for r in records:
        by_pair.setdefault(r.pair_id, set()).add(r.cost)
    assert len(by_pair) == 4
    for costs in by_pair.values():
        assert len(costs) == 1


def test_benchmark_records_are_deterministic():
    corpus = synthesize_letter_like(seed=23, count=8, classes=2, distortion=0.3)
    args = (corpus, [DEG, CentralityMeasure.BETWEENNESS],
            [TLevel.T0, TLevel.T1STAR], SearchSpec.beam(10))
    first = run_timing_benchmark(*args, sample=6, seed=2)
    again = run_timing_benchmark(*args, sample=6, seed=2)
    assert [record_key(r) for r in first] == [record_key(r) for r in again]


def test_shared_cells_equal_a_search_of_each_cells_own_contraction():
    # cells that remove the same node sets are searched once; each must still
    # read as if its own two contractions had been searched
    corpus = synthesize_letter_like(seed=29, count=10, classes=3, distortion=0.3)
    by_name = {g.name: g for g in corpus.graphs}
    cm = CostModel()
    records = run_timing_benchmark(corpus, list(CentralityMeasure), ALL_LEVELS,
                                   SearchSpec.astar(), sample=6, seed=5, cm=cm)
    assert len(records) == 6 * 4 * 4
    for r in records:
        name1, name2 = r.pair_id.split(":", 1)[1].split("|")
        g1, g2 = by_name[name1], by_name[name2]
        assert (r.t_used_1, r.t_used_2) == (t_star_levels(g1)[r.t_level],
                                            t_star_levels(g2)[r.t_level])
        h1, _ = t_centrality_node_contraction(g1, r.t_used_1, r.measure)
        h2, _ = t_centrality_node_contraction(g2, r.t_used_2, r.measure)
        want = run_search(h1, h2, cm, SearchSpec.astar())
        assert (r.cost, r.expanded_nodes) == (want.cost, want.expanded_nodes)


def test_benchmark_validation():
    corpus = synthesize_letter_like(seed=1, count=4, classes=2, distortion=0.1)
    with pytest.raises(ValueError):
        run_timing_benchmark(Corpus("empty"), [DEG], [TLevel.T0],
                             SearchSpec.astar(), sample=1, seed=0)
    with pytest.raises(ValueError):
        run_timing_benchmark(corpus, [], [TLevel.T0], SearchSpec.astar(),
                             sample=1, seed=0)
    with pytest.raises(ValueError):
        run_timing_benchmark(corpus, [DEG], [], SearchSpec.astar(), sample=1, seed=0)
    with pytest.raises(ValueError):
        run_timing_benchmark(corpus, [DEG], [TLevel.T0], SearchSpec.astar(),
                             sample=0, seed=0)


def test_contraction_budgets_recorded_per_graph():
    # a pair of different shapes can contract different node counts
    corpus = Corpus("two", [path_graph(4), cycle_graph(5)])
    for g in corpus.graphs:
        g.class_label = "X"
    records = run_timing_benchmark(corpus, [DEG], [TLevel.T1STAR],
                                   SearchSpec.astar(), sample=2, seed=0)
    for r in records:
        assert {r.t_used_1, r.t_used_2} == {2, 0}  # P4 sheds leaves, C5 nothing


def test_expanded_nodes_shrink_with_contraction():
    corpus = synthesize_letter_like(seed=24, count=10, classes=2, distortion=0.3)
    records = run_timing_benchmark(corpus, [DEG], [TLevel.T0, TLevel.T2STAR],
                                   SearchSpec.astar(), sample=8, seed=3)
    t0 = {r.pair_id: r.expanded_nodes for r in records if r.t_level is TLevel.T0}
    t2 = {r.pair_id: r.expanded_nodes for r in records if r.t_level is TLevel.T2STAR}
    shrunk = sum(t2[p] <= t0[p] for p in t0)
    assert shrunk >= 0.9 * len(t0)


def test_summarize_benchmark():
    mk = lambda level, cost, exp: BenchmarkRecord(
        "p", DEG, level, 0, 0, "astar", cost, 0.0, exp)
    summary = summarize_benchmark([
        mk(TLevel.T0, 2.0, 100), mk(TLevel.T0, 4.0, 200), mk(TLevel.T1STAR, 1.0, 10)])
    assert summary["records"] == 3
    means = {(m["measure"], m["level"]): m for m in summary["means"]}
    cell = means[("degree", "T0")]
    assert cell["pairs"] == 2
    assert cell["mean_cost"] == 3.0
    assert cell["mean_expanded_nodes"] == 150.0
    assert means[("degree", "T1*")]["mean_cost"] == 1.0


def test_csv_round_trip(tmp_path):
    corpus = synthesize_letter_like(seed=25, count=6, classes=2, distortion=0.2)
    records = run_timing_benchmark(corpus, [DEG], [TLevel.T0],
                                   SearchSpec.astar(), sample=3, seed=0)
    out = tmp_path / "bench.csv"
    write_benchmark_csv(records, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == BenchmarkRecord.CSV_HEADER
    assert len(rows) == 1 + len(records)
    for row, rec in zip(rows[1:], records):
        assert row[0] == rec.pair_id
        assert float(row[6]) == rec.cost  # repr floats parse back exactly
        assert int(row[8]) == rec.expanded_nodes


def test_nn_classify_perfect_on_seen_graphs():
    corpus = synthesize_letter_like(seed=26, count=12, classes=3, distortion=0.0)
    train, test = (Corpus("tr", list(corpus)[:6]), Corpus("te", list(corpus)[6:]))
    result = nn_classify(train, test, DEG, TLevel.T0, SearchSpec.astar())
    assert result.accuracy == 1.0
    assert len(result.predictions) == 6
    assert all(t == p for _, t, p in result.predictions)
    d = result.to_json_dict()
    assert d["total"] == 6 and d["correct"] == 6
    assert sum(c["count"] for c in d["confusion"]) == 6


def test_nn_classify_tie_goes_to_lowest_train_index():
    g = path_graph(3)
    a = g.copy(); a.name, a.class_label = "a", "X"
    b = g.copy(); b.name, b.class_label = "b", "Y"
    probe = g.copy(); probe.name, probe.class_label = "p", "Y"
    result = nn_classify(Corpus("tr", [a, b]), Corpus("te", [probe]),
                         DEG, TLevel.T0, SearchSpec.astar())
    # both training graphs sit at distance zero; index 0 wins the tie
    assert result.predictions == [("p", "Y", "X")]
    assert result.accuracy == 0.0
    assert result.confusion == {("Y", "X"): 1}


def test_nn_classify_validation_and_workers():
    corpus = synthesize_letter_like(seed=27, count=10, classes=2, distortion=0.2)
    train, test = (Corpus("tr", list(corpus)[:5]), Corpus("te", list(corpus)[5:]))
    with pytest.raises(ValueError):
        nn_classify(Corpus("none"), test, DEG, TLevel.T0, SearchSpec.astar())
    serial = nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.beam(10))
    pooled = nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.beam(10), workers=3)
    assert serial.predictions == pooled.predictions
    assert serial.accuracy == pooled.accuracy


def test_classification_empty_test_set():
    corpus = synthesize_letter_like(seed=28, count=4, classes=2, distortion=0.1)
    result = nn_classify(Corpus("tr", list(corpus)), Corpus("te"),
                         DEG, TLevel.T0, SearchSpec.astar())
    assert result.predictions == [] and result.accuracy == 0.0


def searched_every_training_graph(train, test, measure, level, search, cm):
    """1-NN predictions from a search against every training graph, nearest
    by (cost, index): the reference the lower-bound filter must equal."""
    def contract(g):
        return t_centrality_node_contraction(g, t_star_levels(g)[level], measure)[0]

    train_contracted = [contract(g) for g in train.graphs]
    preds = []
    for g in test.graphs:
        h = contract(g)
        costs = [run_search(h, ht, cm, search).cost for ht in train_contracted]
        nearest = min(range(len(costs)), key=lambda i: (costs[i], i))
        preds.append((g.name, g.class_label, train.graphs[nearest].class_label))
    return preds


def eagerly_bounded(train, test, measure, level, search, cm):
    """1-NN predictions and the search count when every training graph's
    bipartite bound is computed first and graphs are searched in (bound,
    index) order until the next bound exceeds the best cost: the order
    lazy bounding must keep."""
    def contract(g):
        return t_centrality_node_contraction(g, t_star_levels(g)[level], measure)[0]

    train_contracted = [contract(g) for g in train.graphs]
    preds, searches = [], 0
    for g in test.graphs:
        h = contract(g)
        order = sorted((bipartite_lower_bound(h, ht, cm), i)
                       for i, ht in enumerate(train_contracted))
        best_cost, nearest = float("inf"), -1
        for bound, i in order:
            if bound > best_cost + 1e-9 * (1.0 + best_cost):
                break
            cost = run_search(h, train_contracted[i], cm, search).cost
            searches += 1
            if (cost, i) < (best_cost, nearest):
                best_cost, nearest = cost, i
        preds.append((g.name, g.class_label, train.graphs[nearest].class_label))
    return preds, searches


@pytest.fixture(scope="module")
def small_split():
    # noisy, so that the filter often has to search several training graphs
    corpus = synthesize_letter_like(seed=31, count=60, classes=15, distortion=0.8)
    small = Corpus(corpus.name, [g for g in corpus.graphs if g.order <= 5])
    train, test = split_corpus(small)
    return train, Corpus(test.name, test.graphs[:6], test.split)


@pytest.mark.parametrize("search", [SearchSpec.astar(), SearchSpec.beam(3)],
                         ids=["astar", "beam3"])
@pytest.mark.parametrize("level", [TLevel.T0, TLevel.T1STAR, TLevel.T3STAR], ids=str)
@pytest.mark.parametrize("measure", list(CentralityMeasure), ids=str)
def test_filtered_nn_classify_equals_searching_every_training_graph(
        small_split, measure, level, search):
    train, test = small_split
    cm = CostModel(x_node=0.8, y_node=1.0, x_edge=0.6, y_edge=1.0)
    want = searched_every_training_graph(train, test, measure, level, search, cm)
    serial = nn_classify(train, test, measure, level, search, cm)
    pooled = nn_classify(train, test, measure, level, search, cm, workers=2)
    assert serial.predictions == want
    assert pooled.to_json_dict() == serial.to_json_dict()
    assert serial.pairs == len(train.graphs) * len(test.graphs)
    assert len(test.graphs) <= serial.searches <= serial.bounds <= serial.pairs


@pytest.fixture(scope="module")
def tied_split(small_split):
    # at distortion 0 every graph equals its class prototype, so a test graph
    # has several training twins whose bounds tie the best cost, 0, exactly
    clean_train, clean_test = split_corpus(
        synthesize_letter_like(seed=36, count=20, classes=5, distortion=0.0))
    train, test = small_split
    return (Corpus("tr", train.graphs + clean_train.graphs),
            Corpus("te", test.graphs[:3] + clean_test.graphs[:3]))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("search", [SearchSpec.astar(), SearchSpec.beam(3)],
                         ids=["astar", "beam3"])
@pytest.mark.parametrize("level", [TLevel.T0, TLevel.T1STAR, TLevel.T3STAR], ids=str)
@pytest.mark.parametrize("measure", list(CentralityMeasure), ids=str)
def test_lazy_bounds_search_what_eager_bounds_search(
        tied_split, measure, level, search, workers):
    train, test = tied_split
    cm = CostModel(x_node=0.8, y_node=1.0, x_edge=0.6, y_edge=1.0)
    result = nn_classify(train, test, measure, level, search, cm, workers=workers)
    assert (result.predictions, result.searches) == eagerly_bounded(
        train, test, measure, level, search, cm)
    assert result.searches <= result.bounds < result.pairs


def test_filter_skips_searches_on_separated_classes():
    corpus = synthesize_letter_like(seed=32, count=40, classes=10, distortion=0.05)
    train, test = split_corpus(corpus)
    result = nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.astar())
    assert result.pairs == 400
    assert result.searches < result.pairs // 4
    assert result.to_json_dict()["searches"] == result.searches


def test_filter_tie_goes_to_lowest_index_despite_a_higher_bound():
    def two_nodes(second: str, bond: float, name: str, cls: str) -> Graph:
        g = Graph(name=name, class_label=cls)
        g.add_edge(g.add_node("C"), g.add_node(second), bond)
        return g

    probe = two_nodes("C", 1.0, "p", "B")
    a = two_nodes("N", 1.0, "a", "A")  # one relabel: distance 1, bound 1
    b = two_nodes("C", 2.0, "b", "B")  # one bond change: distance 1, bound 0
    cm = CostModel()
    assert bipartite_lower_bound(probe, a, cm) == 1.0
    assert bipartite_lower_bound(probe, b, cm) == 0.0
    for search in (SearchSpec.astar(), SearchSpec.beam(3)):
        assert run_search(probe, a, cm, search).cost == 1.0
        assert run_search(probe, b, cm, search).cost == 1.0
        result = nn_classify(Corpus("tr", [a, b]), Corpus("te", [probe]),
                             DEG, TLevel.T0, search)
        # b is searched first; a's bound equals the best cost, so a is
        # searched too, and the lower index wins the tie
        assert result.predictions == [("p", "B", "A")]
        assert (result.searches, result.pairs) == (2, 2)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_fail_before_any_work(monkeypatch, workers):
    corpus = synthesize_letter_like(seed=33, count=8, classes=2, distortion=0.2)
    train, test = split_corpus(corpus)

    def no_work(g):
        raise AssertionError("work started before workers was checked")

    monkeypatch.setattr(evaluation, "t_star_levels", no_work)
    with pytest.raises(ValueError, match="workers"):
        nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.astar(), workers=workers)


def counting(monkeypatch, name: str) -> list:
    """Count the calls to the module-level ``evaluation.<name>``."""
    calls = []
    fn = getattr(evaluation, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(evaluation, name, counted)
    return calls


def test_a_second_call_derives_only_its_new_test_graphs(monkeypatch):
    corpus = synthesize_letter_like(seed=34, count=36, classes=6, distortion=0.3)
    train, test = split_corpus(corpus)
    args = (CentralityMeasure.BETWEENNESS, TLevel.T1STAR, SearchSpec.astar())
    first = nn_classify(train, Corpus("a", test.graphs[:4]), *args)
    levels = counting(monkeypatch, "t_star_levels")
    contractions = counting(monkeypatch, "t_centrality_node_contraction")
    second = nn_classify(train, Corpus("b", test.graphs[4:8]), *args)
    assert (len(levels), len(contractions)) == (4, 4)
    # the training set's memo changes nothing: a fresh copy of every graph agrees
    fresh_train = Corpus("tr", [g.copy() for g in train.graphs])
    for part, result in ((test.graphs[:4], first), (test.graphs[4:8], second)):
        fresh = nn_classify(fresh_train, Corpus("c", [g.copy() for g in part]), *args)
        assert fresh.to_json_dict() == result.to_json_dict()


@pytest.mark.parametrize("mutation", ["add_node", "add_edge", "delete_node"])
def test_a_mutated_graph_is_derived_afresh(mutation):
    corpus = synthesize_letter_like(seed=35, count=24, classes=4, distortion=0.3)
    train, test = split_corpus(corpus)
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    nn_classify(train, test, *args)
    for g in train.graphs + test.graphs:
        if mutation == "add_node":
            g.add_edge(g.nodes()[0], g.add_node(Point2D(9.0, 9.0)))
        elif mutation == "add_edge":
            free = [(u, v) for u in g.nodes() for v in g.nodes()
                    if u < v and not g.has_edge(u, v)]
            if free:
                g.add_edge(*free[0])
        else:
            g.delete_node(g.nodes()[0])
    again = nn_classify(train, test, *args)
    fresh = nn_classify(Corpus("tr", [g.copy() for g in train.graphs]),
                        Corpus("te", [g.copy() for g in test.graphs]), *args)
    assert again.to_json_dict() == fresh.to_json_dict()


def test_timing_benchmark_contracts_on_every_call(monkeypatch):
    # BenchmarkRecord.elapsed includes the contraction walk, so no call may skip it
    corpus = Corpus("two", [path_graph(4), path_graph(5)])
    contractions = counting(monkeypatch, "t_centrality_node_contraction")
    for _ in range(2):
        contractions.clear()
        run_timing_benchmark(corpus, list(CentralityMeasure), [TLevel.T1STAR],
                             SearchSpec.astar(), sample=1, seed=1)
        assert len(contractions) == 2 * len(CentralityMeasure)


# ----------------------------------------------------------------------
# the kept worker processes
# ----------------------------------------------------------------------

def _children() -> list:
    return evaluation._kept[0]


def test_kept_pool_serves_relabelled_and_mutated_training_graphs(small_split):
    train, test = small_split
    # one class per training graph, so a prediction names the nearest graph
    train = Corpus("tr", [g.copy() for g in train.graphs])
    for i, g in enumerate(train.graphs):
        g.class_label = f"c{i}"
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())

    threads = threading.active_count()
    first = nn_classify(train, test, *args, workers=2)
    children = _children()
    assert len(children) == 1
    assert threading.active_count() == threads
    assert first.to_json_dict() == nn_classify(train, test, *args).to_json_dict()

    # a relabel leaves the contraction memo, and so the workers, in place;
    # the class is read in the calling process, so it is never stale
    nearest = int(first.predictions[0][2][1:])
    train.graphs[nearest].class_label = "relabelled"
    relabelled = nn_classify(train, test, *args, workers=2)
    assert _children() is children
    assert relabelled.predictions[0][2] == "relabelled"
    assert relabelled.to_json_dict() == nn_classify(train, test, *args).to_json_dict()

    # a mutation empties the memo, so the contracted graphs and the workers change
    other = train.graphs[(nearest + 1) % len(train.graphs)]
    other.add_edge(other.nodes()[0], other.add_node(Point2D(9.0, 9.0)))
    mutated = nn_classify(train, test, *args, workers=2)
    assert _children() is not children
    assert not any(process.is_alive() for process, _ in children)
    assert mutated.to_json_dict() == nn_classify(train, test, *args).to_json_dict()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_workers_count_the_caller(small_split, workers):
    train, test = small_split
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    pooled = nn_classify(train, test, *args, workers=workers)
    assert len(_children()) == workers - 1
    assert {p.pid for p, _ in _children()} <= {p.pid for p in multiprocessing.active_children()}
    assert pooled.to_json_dict() == nn_classify(train, test, *args).to_json_dict()


def test_a_broken_kept_pool_fails_one_call_and_is_replaced(small_split):
    train, test = small_split
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    want = nn_classify(train, test, *args).to_json_dict()
    nn_classify(train, test, *args, workers=2)
    children = _children()
    [(worker, _)] = children
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=30)
    assert not worker.is_alive()
    with pytest.raises(BrokenProcessPool):
        nn_classify(train, test, *args, workers=2)
    assert evaluation._kept is None
    assert nn_classify(train, test, *args, workers=2).to_json_dict() == want
    assert _children() is not children


# a training list for the _map tests below: two graphs of 2 and 3 nodes
TRAIN = [path_graph(2), path_graph(3)]


def _scaled(task: int, train: list, sizes: list) -> int:
    """task times the training graphs' node count: 5 * task for TRAIN."""
    assert [(h.order, h.size) for h in train] == sizes
    return task * sum(n for n, _ in sizes)


def _die_outside(caller: int, train: list, sizes: list) -> int:
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return caller


def test_a_worker_dying_during_a_call_fails_that_call():
    # with 2 workers the caller computes tasks 0-1 and the child tasks 2-3
    assert evaluation._map(_scaled, [1, 2, 3, 4], 2, TRAIN) == [5, 10, 15, 20]
    with pytest.raises(BrokenProcessPool):
        evaluation._map(_die_outside, [os.getpid()] * 4, 2, TRAIN)
    assert evaluation._kept is None
    assert evaluation._map(_scaled, [5, 6, 7, 8], 2, TRAIN) == [25, 30, 35, 40]


class TaskFailed(Exception):
    pass


def _scaled_or_fail(task: int, train: list, sizes: list) -> int:
    if task < 0:
        raise TaskFailed(task)
    return _scaled(task, train, sizes)


def test_a_task_raising_in_a_worker_raises_in_the_caller():
    # with 2 workers the caller computes tasks 0-1 and the child tasks 2-3
    evaluation._map(_scaled_or_fail, [1, 2, 3, 4], 2, TRAIN)
    children = _children()
    with pytest.raises(TaskFailed, match="-4") as raised:
        evaluation._map(_scaled_or_fail, [1, 2, 3, -4], 2, TRAIN)
    assert "in _scaled_or_fail" in str(raised.value.__cause__)
    assert _children() is children
    assert evaluation._map(_scaled_or_fail, [5, 6, 7, 8], 2, TRAIN) == [25, 30, 35, 40]


def test_a_task_raising_in_the_callers_share_leaves_no_reply_unread():
    evaluation._map(_scaled_or_fail, [1, 2, 3, 4], 2, TRAIN)
    children = _children()
    with pytest.raises(TaskFailed, match="-1"):
        evaluation._map(_scaled_or_fail, [-1, 2, 3, 4], 2, TRAIN)
    assert _children() is children
    # an unread reply would give this call the last call's [15, 20]
    assert evaluation._map(_scaled_or_fail, [5, 6, 7, 8], 2, TRAIN) == [25, 30, 35, 40]


def test_pooled_calls_from_several_threads_equal_serial_ones(small_split, tied_split):
    # each call switches the training set, so each one replaces the kept workers
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    splits = [small_split, tied_split]
    want = [nn_classify(train, test, *args).to_json_dict() for train, test in splits]
    got = []

    def classify(k):
        for j in range(3):
            train, test = splits[(k + j) % 2]
            got.append(((k + j) % 2, nn_classify(train, test, *args, workers=2).to_json_dict()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=classify, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 12
    assert all(result == want[i] for i, result in got)


def test_no_pool_starts_for_an_empty_test_set(monkeypatch, small_split):
    def no_fork():
        raise AssertionError("a worker was forked")

    evaluation._shut_down()
    monkeypatch.setattr(os, "fork", no_fork)
    result = nn_classify(small_split[0], Corpus("te"), DEG, TLevel.T1STAR,
                         SearchSpec.astar(), workers=2)
    assert result.predictions == [] and result.pairs == 0
    assert evaluation._kept is None


def _classifier(workers: int, tail: str = "") -> dict:
    """Popen arguments for a Python subprocess that classifies with
    ``workers``, prints its children's pids and then runs ``tail``."""
    script = textwrap.dedent(f"""
        import multiprocessing, time
        from cged import CentralityMeasure
        from cged.dataset import split_corpus, synthesize_letter_like
        from cged.evaluation import TLevel, nn_classify
        from cged.ged import SearchSpec

        train, test = split_corpus(synthesize_letter_like(37, 12, 3, 0.3))
        nn_classify(train, test, CentralityMeasure.DEGREE, TLevel.T1STAR,
                    SearchSpec.astar(), workers={workers})
        print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    """) + tail
    src = str(Path(evaluation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return dict(args=[sys.executable, "-c", script], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited; a zombie has."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status


def test_no_pool_worker_outlives_its_parent():
    done = subprocess.run(**_classifier(workers=2), timeout=60)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_no_pool_worker_outlives_its_killed_parent():
    with subprocess.Popen(**_classifier(workers=3, tail="time.sleep(60)\n")) as proc:
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait(timeout=60)
    assert len(pids) == 2
    deadline = time.monotonic() + 30
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left
