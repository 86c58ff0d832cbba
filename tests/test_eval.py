"""Benchmark harness and nearest-neighbor classification."""

import csv
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

from cged import CentralityMeasure, evaluation, kernels, t_centrality_node_contraction
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
from helpers import complete_graph, cycle_graph, path_graph

DEG = CentralityMeasure.DEGREE
ALL_LEVELS = [TLevel.T0, TLevel.T1STAR, TLevel.T2STAR, TLevel.T3STAR]


def record_key(r: BenchmarkRecord):
    # everything except the wall-clock fields
    return (r.pair_id, r.measure, r.t_level, r.t_used_1, r.t_used_2,
            r.search, r.cost, r.expanded_nodes)


def without_search_time(r: BenchmarkRecord):
    # every field except the one a later call re-measures
    return record_key(r) + (r.contraction_seconds,)


def test_t_star_levels_hand_cases():
    assert t_star_levels(cycle_graph(4)) == {
        TLevel.T0: 0, TLevel.T1STAR: 0, TLevel.T2STAR: 3, TLevel.T3STAR: 3}
    assert t_star_levels(path_graph(3)) == {
        TLevel.T0: 0, TLevel.T1STAR: 2, TLevel.T2STAR: 2, TLevel.T3STAR: 2}
    g = Graph()
    g.add_node("C")
    assert set(t_star_levels(g).values()) == {0}


def test_parse_level():
    # a level's value, its name, or T and its number, in any case
    accepted = {
        "t0": TLevel.T0,
        "t1*": TLevel.T1STAR, "t1star": TLevel.T1STAR, "t1": TLevel.T1STAR,
        "t2*": TLevel.T2STAR, "t2star": TLevel.T2STAR, "t2": TLevel.T2STAR,
        "t3*": TLevel.T3STAR, "t3star": TLevel.T3STAR, "t3": TLevel.T3STAR,
    }
    for spelling, level in accepted.items():
        for text in (spelling, spelling.upper(), f"  {spelling.upper()}\t", f" {spelling} "):
            assert parse_level(text) is level
    assert parse_level("T2star") is TLevel.T2STAR
    for text in ("T9", "T0*", "t0star", "T4", "", "  ", "T1**", "star"):
        with pytest.raises(ValueError, match="unknown level"):
            parse_level(text)
    # a level or anything else that is not text is not a spelling
    for bad in (3, None, TLevel.T1STAR):
        with pytest.raises(ValueError) as exc:
            parse_level(bad)
        assert str(exc.value) == f"level must be a str, got {bad!r}"


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
    # a level given by its name would match no level and give no records,
    # and a level given as a measure would run at T0
    for measures, levels, wrong in (
            ([DEG], ["T1*"], "level must be a TLevel, got 'T1*'"),
            ([TLevel.T1STAR], [TLevel.T1STAR], "measure must be a CentralityMeasure"),
            (["degree"], [TLevel.T0], "measure must be a CentralityMeasure, got 'degree'")):
        with pytest.raises(ValueError, match=re.escape(wrong)):
            run_timing_benchmark(corpus, measures, levels, SearchSpec.astar(),
                                 sample=1, seed=0)
    # a repeated measure or level would multiply the records and inflate the
    # summary's pairs
    for measures, levels, repeated in (
            ([DEG, DEG], [TLevel.T1STAR], "measure degree"),
            ([DEG], [TLevel.T1STAR, TLevel.T0, TLevel.T1STAR], "level T1*"),
            ([DEG, CentralityMeasure.PAGERANK, DEG], [TLevel.T0, TLevel.T0], "measure degree")):
        with pytest.raises(ValueError, match=re.escape(f"{repeated} is given more than once")):
            run_timing_benchmark(corpus, measures, levels, SearchSpec.astar(),
                                 sample=3, seed=0)


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
    mk = lambda level, cost, contracting, searching, exp: BenchmarkRecord(
        "p", DEG, level, 0, 0, "astar", cost, contracting, searching, exp)
    summary = summarize_benchmark([
        mk(TLevel.T0, 2.0, 0.0, 0.5, 100), mk(TLevel.T0, 4.0, 0.0, 1.5, 200),
        mk(TLevel.T1STAR, 1.0, 0.25, 0.125, 10)])
    assert summary["records"] == 3
    means = {(m["measure"], m["level"]): m for m in summary["means"]}
    cell = means[("degree", "T0")]
    assert cell["pairs"] == 2
    assert cell["mean_cost"] == 3.0
    assert (cell["mean_contraction_seconds"], cell["mean_search_seconds"]) == (0.0, 1.0)
    assert cell["mean_expanded_nodes"] == 150.0
    cell = means[("degree", "T1*")]
    assert cell["mean_cost"] == 1.0
    assert (cell["mean_contraction_seconds"], cell["mean_search_seconds"]) == (0.25, 0.125)


def test_csv_round_trip(tmp_path):
    corpus = synthesize_letter_like(seed=25, count=6, classes=2, distortion=0.2)
    records = run_timing_benchmark(corpus, [DEG], [TLevel.T0, TLevel.T1STAR],
                                   SearchSpec.astar(), sample=3, seed=0)
    out = tmp_path / "bench.csv"
    write_benchmark_csv(records, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == BenchmarkRecord.CSV_HEADER
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row["pair_id"] == rec.pair_id
        # repr floats parse back exactly
        assert float(row["cost"]) == rec.cost
        assert float(row["contraction_seconds"]) == rec.contraction_seconds
        assert float(row["search_seconds"]) == rec.search_seconds
        assert int(row["expanded_nodes"]) == rec.expanded_nodes
    assert any(float(row["contraction_seconds"]) > 0.0 for row in rows)
    assert all(float(row["contraction_seconds"]) == 0.0 for row in rows if row["level"] == "T0")


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
    # a string measure would pass at T0, and fail at Tk* only after contracting
    for args, wrong in (
            (("degree", TLevel.T0, SearchSpec.astar()), "measure must be a CentralityMeasure"),
            ((DEG, "T1*", SearchSpec.astar()), "level must be a TLevel"),
            ((TLevel.T0, DEG, SearchSpec.astar()), "measure must be a"),
            ((DEG, TLevel.T0, "astar"), "search must be a SearchSpec, got 'astar'")):
        with pytest.raises(ValueError, match=re.escape(wrong)):
            nn_classify(train, test, *args)
    serial = nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.beam(10))
    pooled = nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.beam(10), workers=3)
    assert serial.predictions == pooled.predictions
    assert serial.accuracy == pooled.accuracy


def test_a_cost_model_of_another_type_fails_before_any_classify_or_grid_search(monkeypatch):
    calls = []
    search = kernels.search
    monkeypatch.setattr(kernels, "search", lambda *args: calls.append(args) or search(*args))
    corpus = synthesize_letter_like(seed=27, count=10, classes=2, distortion=0.2)
    train, test = split_corpus(corpus)
    for bad in (0, {}):
        message = re.escape(f"cm must be a CostModel, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            nn_classify(train, test, DEG, TLevel.T0, SearchSpec.astar(), cm=bad)
        with pytest.raises(ValueError, match=message):
            run_timing_benchmark(corpus, [DEG], [TLevel.T0], SearchSpec.astar(), 1, 0, cm=bad)
    assert calls == []
    nn_classify(train, test, DEG, TLevel.T0, SearchSpec.astar(), cm=None)
    assert calls


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
    assert (len(test.graphs) <= serial.searches <= serial.bounds
            <= serial.hausdorff_bounds <= serial.pairs)


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
    assert result.searches <= result.bounds <= result.hausdorff_bounds < result.pairs


def test_filter_skips_searches_on_separated_classes():
    corpus = synthesize_letter_like(seed=32, count=40, classes=10, distortion=0.05)
    train, test = split_corpus(corpus)
    result = nn_classify(train, test, DEG, TLevel.T1STAR, SearchSpec.astar())
    assert result.pairs == 400
    assert result.searches < result.pairs // 4
    assert result.to_json_dict()["searches"] == result.searches
    # the Hausdorff tier rules out most graphs the size bound leaves
    assert result.bounds < result.hausdorff_bounds // 2
    assert result.to_json_dict()["hausdorff_bounds"] == result.hausdorff_bounds


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


@pytest.mark.parametrize("workers", [0, -3, 2.5, True, float("nan")], ids=repr)
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


def mutate(g: Graph, mutation: str) -> None:
    """Change g through one mutator, which must empty g's memo."""
    if mutation == "add_node":
        g.add_edge(g.nodes()[0], g.add_node(Point2D(9.0, 9.0)))
    elif mutation == "add_edge":
        free = [(u, v) for u in g.nodes() for v in g.nodes()
                if u < v and not g.has_edge(u, v)]
        if free:
            g.add_edge(*free[0])
    else:
        g.delete_node(g.nodes()[0])


@pytest.mark.parametrize("mutation", ["add_node", "add_edge", "delete_node"])
def test_a_mutated_graph_is_derived_afresh(mutation):
    corpus = synthesize_letter_like(seed=35, count=24, classes=4, distortion=0.3)
    train, test = split_corpus(corpus)
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    nn_classify(train, test, *args)
    for g in train.graphs + test.graphs:
        mutate(g, mutation)
    again = nn_classify(train, test, *args)
    fresh = nn_classify(Corpus("tr", [g.copy() for g in train.graphs]),
                        Corpus("te", [g.copy() for g in test.graphs]), *args)
    assert again.to_json_dict() == fresh.to_json_dict()


def walked(calls: list) -> list[tuple[str, int, str]]:
    """(graph name, budget, measure) of each counted contraction call."""
    return sorted((g.name, t, m.value) for g, t, m in calls)


def every_walk(graphs, measures) -> list[tuple[str, int, str]]:
    """One T3*-budget walk per (graph with a non-zero T3* budget, measure)."""
    budgets = {g.name: t_star_levels(g)[TLevel.T3STAR] for g in graphs}
    return sorted((name, t, m.value) for name, t in budgets.items() if t for m in measures)


def test_a_second_timing_call_walks_nothing_and_repeats_its_records(monkeypatch):
    # each graph's walks and contracted graphs are kept in its memo, and a
    # record reports the seconds its walks took when they were made
    corpus = synthesize_letter_like(seed=36, count=8, classes=4, distortion=0.3)
    args = (corpus, list(CentralityMeasure), ALL_LEVELS, SearchSpec.astar())
    contractions = counting(monkeypatch, "t_centrality_node_contraction")
    first = run_timing_benchmark(*args, sample=6, seed=4)
    assert contractions
    contractions.clear()
    second = run_timing_benchmark(*args, sample=6, seed=4)
    assert contractions == []
    assert [without_search_time(r) for r in second] == [without_search_time(r) for r in first]
    removing = [r for r in first if r.t_used_1 or r.t_used_2]
    assert removing and all(r.contraction_seconds > 0.0 for r in removing)
    assert all(r.contraction_seconds == 0.0 for r in first if r.t_level is TLevel.T0)


def test_a_cold_timing_call_walks_each_graph_once_per_measure(monkeypatch):
    corpus = synthesize_letter_like(seed=37, count=6, classes=3, distortion=0.3)
    sample, seed = 10, 2
    used = {k for pair in sample_pairs(6, sample, seed) for k in pair}
    assert len(used) < 2 * sample  # the sampled pairs repeat graphs
    measures = [DEG, CentralityMeasure.BETWEENNESS]
    contractions = counting(monkeypatch, "t_centrality_node_contraction")
    run_timing_benchmark(corpus, measures, [TLevel.T1STAR, TLevel.T2STAR],
                         SearchSpec.astar(), sample=sample, seed=seed)
    assert walked(contractions) == every_walk([corpus.graphs[k] for k in used], measures)


def test_t0_calls_and_unbudgeted_graphs_walk_nothing(monkeypatch):
    levels = counting(monkeypatch, "t_star_levels")
    contractions = counting(monkeypatch, "t_centrality_node_contraction")
    corpus = synthesize_letter_like(seed=38, count=6, classes=3, distortion=0.3)
    t0 = run_timing_benchmark(corpus, list(CentralityMeasure), [TLevel.T0],
                              SearchSpec.astar(), sample=4, seed=0)
    assert (levels, contractions) == ([], [])
    assert all(r.contraction_seconds == 0.0 for r in t0)
    # every node of K5 has degree 4, so no degree-1..3 pass removes any:
    # its T3* budget is 0, and no centrality is computed for it
    dense = Corpus("dense", [complete_graph(5), complete_graph(5)])
    tk = run_timing_benchmark(dense, list(CentralityMeasure), ALL_LEVELS,
                              SearchSpec.astar(), sample=2, seed=0)
    assert contractions == []
    assert {(r.t_used_1, r.t_used_2, r.contraction_seconds, r.cost) for r in tk} == \
        {(0, 0, 0.0, 0.0)}


def test_the_timing_grid_imports_the_solver_before_its_first_search(monkeypatch):
    # the assignment solver's one-time import would otherwise land in the
    # first search_seconds whose bound needs it
    kernels._solver.cache_clear()
    cached = []

    def watched(*args):
        cached.append(kernels._solver.cache_info().currsize)
        return run_search(*args)

    monkeypatch.setattr(evaluation, "run_search", watched)
    corpus = synthesize_letter_like(seed=39, count=6, classes=3, distortion=0.3)
    run_timing_benchmark(corpus, [DEG], [TLevel.T0], SearchSpec.astar(), sample=2, seed=0)
    assert cached and cached[0] == 1


def test_records_follow_the_pair_order_past_99999_pairs(monkeypatch):
    # the pair id's number has five digits; pair 100000 must still come last
    g1, g2 = Graph(name="a"), Graph(name="b")
    g1.add_node("C")
    g2.add_node("N")
    monkeypatch.setattr(evaluation, "sample_pairs", lambda n, sample, seed: [(0, 1)] * sample)
    records = run_timing_benchmark(Corpus("tiny", [g1, g2]), [DEG], [TLevel.T0],
                                   SearchSpec.astar(), sample=100_001, seed=0)
    assert [int(r.pair_id.split(":")[0]) for r in records] == list(range(100_001))


def test_a_cold_call_builds_only_the_level_graphs_it_reads(monkeypatch):
    # a T1*-only call contracts each graph with one walk and builds at most
    # its T1* graph; the other levels' graphs are never built
    corpus = synthesize_letter_like(seed=7, count=48, classes=24, distortion=0.12)
    train, test = split_corpus(corpus)
    built = []
    without = Graph.without

    def counted(self, ids):
        built.append(sys._getframe(1).f_code.co_name)
        return without(self, ids)

    monkeypatch.setattr(Graph, "without", counted)
    nn_classify(train, test, CentralityMeasure.BETWEENNESS, TLevel.T1STAR, SearchSpec.astar())
    assert 0 < built.count("_without") <= len(corpus.graphs)


def test_budgets_build_no_contracted_graph(monkeypatch):
    # t_star_levels reads only the degree chain's report, so working out a
    # graph's budgets builds no graph
    corpus = synthesize_letter_like(seed=7, count=48, classes=24, distortion=0.12)
    train, test = split_corpus(corpus)
    levels, without = evaluation.t_star_levels, Graph.without
    inside, calls, built = [], [], []

    def counted_levels(g):
        inside.append(g)
        calls.append(g)
        try:
            return levels(g)
        finally:
            inside.pop()

    def counted(self, ids):
        built.append(bool(inside))
        return without(self, ids)

    monkeypatch.setattr(evaluation, "t_star_levels", counted_levels)
    monkeypatch.setattr(Graph, "without", counted)
    nn_classify(train, test, CentralityMeasure.BETWEENNESS, TLevel.T1STAR, SearchSpec.astar())
    assert calls and built
    assert not any(built)


@pytest.mark.parametrize("mutation", ["add_node", "add_edge", "delete_node"])
def test_a_mutated_graph_is_walked_afresh(monkeypatch, mutation):
    corpus = synthesize_letter_like(seed=39, count=8, classes=4, distortion=0.3)
    args = (list(CentralityMeasure), ALL_LEVELS, SearchSpec.astar())
    before = run_timing_benchmark(corpus, *args, sample=6, seed=5)
    for g in corpus.graphs:
        mutate(g, mutation)
    used = [corpus.graphs[k] for k in {k for pair in sample_pairs(8, 6, 5) for k in pair}]
    contractions = counting(monkeypatch, "t_centrality_node_contraction")
    again = run_timing_benchmark(corpus, *args, sample=6, seed=5)
    assert walked(contractions) == every_walk(used, CentralityMeasure)
    fresh = run_timing_benchmark(Corpus("copies", [g.copy() for g in corpus.graphs]),
                                 *args, sample=6, seed=5)
    assert [record_key(r) for r in again] == [record_key(r) for r in fresh]
    assert [record_key(r) for r in again] != [record_key(r) for r in before]


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


@pytest.mark.parametrize("level", [TLevel.T0, TLevel.T1STAR], ids=str)
def test_kept_pool_serves_a_training_graph_changed_without_a_removal(level):
    # no graph here has a node of degree 1, so T1* removes nothing before or
    # after the change: the contraction is the graph itself either way, and
    # the change must still give the workers a new form
    near, far = cycle_graph(4), cycle_graph(4)
    far.add_edge(0, 2)
    for g, label in ((near, "near"), (far, "far")):
        g.class_label = label
    train = Corpus("tr", [near, far])
    test = Corpus("te", [cycle_graph(4) for _ in range(4)])
    args = (DEG, level, SearchSpec.astar())
    first = nn_classify(train, test, *args, workers=2)
    children = _children()
    assert {p for _, _, p in first.predictions} == {"near"}
    assert first.to_json_dict() == nn_classify(train, test, *args).to_json_dict()

    near.add_edge(0, 2)
    near.add_edge(1, 3)  # now K4, two edges from each test graph; far is one
    changed = nn_classify(train, test, *args, workers=2)
    assert _children() is not children
    assert {p for _, _, p in changed.predictions} == {"far"}
    assert changed.to_json_dict() == nn_classify(train, test, *args).to_json_dict()


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


@pytest.mark.parametrize("fails", ["Pipe", "start"])
def test_a_fork_that_fails_midway_leaves_no_partial_pool(monkeypatch, small_split, fails):
    # the second of two children cannot be made: the first is shut down with
    # it, so that the next call forks a full set and answers every test graph
    train, test = small_split
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    want = nn_classify(train, test, *args).to_json_dict()
    evaluation._shut_down()
    context = multiprocessing.get_context("fork")
    owner = type(context) if fails == "Pipe" else context.Process
    original = getattr(owner, fails)
    calls = []

    def second_fails(self, *rest):
        calls.append(self)
        if len(calls) == 2:
            raise OSError("no second child")
        return original(self, *rest)

    monkeypatch.setattr(owner, fails, second_fails)
    with pytest.raises(OSError, match="no second child"):
        nn_classify(train, test, *args, workers=3)
    monkeypatch.undo()
    assert evaluation._kept is None
    assert multiprocessing.active_children() == []
    again = nn_classify(train, test, *args, workers=3)
    assert len(_children()) == 2
    assert again.to_json_dict() == want


def test_a_level_that_removes_nothing_is_the_graph_itself(monkeypatch):
    # K5 has no node of degree 1 to 3, so every level's budget is 0 and no
    # graph is walked or copied, at T0 or at any Tk*
    g = complete_graph(5)

    def no_copy(self, ids):
        raise AssertionError("a graph was copied")

    monkeypatch.setattr(Graph, "without", no_copy)
    for level in TLevel:
        assert evaluation._contract(g, DEG, level) is g
    train = Corpus("tr", [complete_graph(5), path_graph(3)])
    test = Corpus("te", [complete_graph(4)])
    result = nn_classify(train, test, DEG, TLevel.T0, SearchSpec.astar())
    assert result.pairs == 2 and len(result.predictions) == 1


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


def test_a_pooled_call_forks_only_the_children_it_uses():
    # two tasks on 8 workers: the caller takes the first and one child the second
    evaluation._shut_down()
    assert evaluation._map(_scaled, [1, 2], 8, TRAIN) == [5, 10]
    assert len(_children()) == 1


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
    assert evaluation._kept is None
    assert not any(process.is_alive() for process, _ in children)
    # an unread reply would give this call the last call's [15, 20]
    assert evaluation._map(_scaled_or_fail, [5, 6, 7, 8], 2, TRAIN) == [25, 30, 35, 40]


def _tenfold(task: int, train: list, sizes: list) -> int:
    return 10 * task


def test_a_share_that_cannot_be_sent_leaves_no_reply_unread():
    # with 3 workers the first child takes tasks 2-3 and the second tasks
    # 4-5, whose lock cannot be pickled: the first child's reply is never
    # read by that call
    evaluation._map(_tenfold, [1, 2, 3, 4, 5, 6], 3, TRAIN)
    with pytest.raises(TypeError, match="pickle"):
        evaluation._map(_tenfold, [1, 2, 3, 4, threading.Lock(), 6], 3, TRAIN)
    assert evaluation._kept is None
    # an unread reply would give this call the last call's [30, 40]
    assert evaluation._map(_tenfold, [7, 8, 9, 10, 11, 12], 3, TRAIN) == [
        70, 80, 90, 100, 110, 120]


def test_an_interrupt_while_the_caller_waits_leaves_no_reply_unread(monkeypatch):
    evaluation._map(_tenfold, [1, 2, 3, 4], 2, TRAIN)  # the child exists before the patch
    recv = Connection.recv

    def interrupted(self):
        monkeypatch.setattr(Connection, "recv", recv)
        raise KeyboardInterrupt

    monkeypatch.setattr(Connection, "recv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        evaluation._map(_tenfold, [5, 6, 7, 8], 2, TRAIN)
    assert evaluation._kept is None
    # an unread reply would give this call the last call's [70, 80]
    assert evaluation._map(_tenfold, [1, 2, 3, 4], 2, TRAIN) == [10, 20, 30, 40]


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


def test_no_pool_starts_for_a_single_test_graph(monkeypatch, small_split):
    def no_fork():
        raise AssertionError("a worker was forked")

    train, test = small_split
    one = Corpus("te", test.graphs[:1])
    args = (DEG, TLevel.T1STAR, SearchSpec.astar())
    evaluation._shut_down()
    monkeypatch.setattr(os, "fork", no_fork)
    result = nn_classify(train, one, *args, workers=4)
    assert result.to_json_dict() == nn_classify(train, one, *args).to_json_dict()
    assert len(result.predictions) == 1
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
