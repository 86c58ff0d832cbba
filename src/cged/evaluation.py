"""Benchmark and classification harness.

Two experiments are reproduced here: per-pair timing/expansion benchmarks
across centrality measures and contraction levels, and nearest-neighbor
classification where the distance is the contracted edit distance.
Classification puts the bipartite lower bound of :mod:`cged.ged` in front
of every search and skips the training graphs whose bound shows they
cannot be the nearest; since the bound never exceeds the exact distance,
and beam never returns less than it, the predictions are those of
searching every training graph, under either search. A cheaper size bound
decides which bipartite bounds are worth computing, and each graph's
contraction is kept in the graph's memo, so the training set is contracted
once however many calls classify against it.

Levels follow the iterated-degree convention: level Tk* contracts, per
graph, as many nodes as a degree-1..k contraction chain of that graph
removes; T0 contracts nothing. The two graphs of a pair may therefore use
different t values.

Everything is deterministic under a fixed seed: pair sampling and search
tie-breaking follow a total order. The timing grid runs in the calling
process, so no transfer to another process enters its ``elapsed`` fields.
Classification can search on several processes (``workers=N``: the caller
and N - 1 children forked on the first such call and kept for later ones,
see :func:`_map`); each task depends only on its own inputs and on the
training graphs its process holds, and results come back in task order, so
its predictions are byte-identical whatever the number of workers.
"""

from __future__ import annotations

import atexit
import csv
import heapq
import math
import multiprocessing
import threading
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .centrality import CentralityMeasure
from .contraction import k_star_node_contraction, t_centrality_node_contraction
from .costs import CostModel
from .dataset import Corpus
from .ged import SearchSpec, bipartite_lower_bound, run_search
from .graph import Graph


class TLevel(Enum):
    T0 = "T0"
    T1STAR = "T1*"
    T2STAR = "T2*"
    T3STAR = "T3*"

    def __str__(self) -> str:
        return self.value


_LEVEL_ALIASES = {
    "t0": TLevel.T0, "t1*": TLevel.T1STAR, "t2*": TLevel.T2STAR, "t3*": TLevel.T3STAR,
    "t1star": TLevel.T1STAR, "t2star": TLevel.T2STAR, "t3star": TLevel.T3STAR,
    "t1": TLevel.T1STAR, "t2": TLevel.T2STAR, "t3": TLevel.T3STAR,
}


def parse_level(s: str) -> TLevel:
    try:
        return _LEVEL_ALIASES[s.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown level {s!r}; use T0, T1*, T2* or T3*") from None


def t_star_levels(g: Graph) -> dict[TLevel, int]:
    """Per-level contraction budget of one graph: 0 at T0, the size of a
    degree-1..k contraction chain at Tk*.

    The degree-1..3 chain contains the shorter ones, so one run of it gives
    every budget: Tk* counts the removals of its first k passes.
    """
    _, report = k_star_node_contraction(g, 3)
    passes = [int(k) for _, k in report.removed]  # the degree pass of each removal
    return {
        TLevel.T0: 0,
        TLevel.T1STAR: passes.count(1),
        TLevel.T2STAR: passes.count(1) + passes.count(2),
        TLevel.T3STAR: len(passes),
    }


def _levels(g: Graph) -> dict[TLevel, int]:
    """:func:`t_star_levels` of g, kept in g's memo until g changes."""
    levels = g._memo.get("levels")
    if levels is None:
        levels = g._memo["levels"] = t_star_levels(g)
    return levels


@dataclass
class BenchmarkRecord:
    """One (pair, measure, level) cell of the benchmark grid.

    ``elapsed`` is the time to build the cell's contracted pair and search
    it, plus, when the cell removes any node, the time its measure took to
    contract both graphs. Cells of one pair that remove the same node sets
    share one search, so they carry the same ``cost``, ``elapsed`` and
    ``expanded_nodes``; every T0 cell of a pair is one such group.
    """

    pair_id: str
    measure: CentralityMeasure
    t_level: TLevel
    t_used_1: int
    t_used_2: int
    search: str
    cost: float
    elapsed: float
    expanded_nodes: int

    CSV_HEADER = ("pair_id", "measure", "level", "t_used_1", "t_used_2",
                  "search", "cost", "elapsed_seconds", "expanded_nodes")

    def csv_row(self) -> tuple:
        return (self.pair_id, self.measure.value, self.t_level.value,
                self.t_used_1, self.t_used_2, self.search,
                repr(self.cost), repr(self.elapsed), self.expanded_nodes)


@dataclass
class ClassificationResult:
    """Per-graph predictions plus accuracy and confusion counts.

    ``pairs`` counts the (test, training) graph pairs, ``bounds`` the
    bipartite lower bounds computed and ``searches`` the edit-distance
    searches run, so ``searches <= bounds <= pairs``; the size bound rules
    out the pairs left unbounded, the bipartite bound those left unsearched.
    """

    predictions: list[tuple[str, str, str]]  # (graph name, true, predicted)
    accuracy: float
    searches: int
    bounds: int
    pairs: int
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)

    @classmethod
    def from_predictions(cls, preds: list[tuple[str, str, str]], *, searches: int,
                         bounds: int, pairs: int) -> "ClassificationResult":
        confusion: dict[tuple[str, str], int] = {}
        correct = 0
        for _, true, predicted in preds:
            confusion[(true, predicted)] = confusion.get((true, predicted), 0) + 1
            correct += true == predicted
        accuracy = correct / len(preds) if preds else 0.0
        return cls(list(preds), accuracy, searches, bounds, pairs, confusion)

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "total": len(self.predictions),
            "correct": sum(t == p for _, t, p in self.predictions),
            "searches": self.searches,
            "bounds": self.bounds,
            "pairs": self.pairs,
            "predictions": [
                {"graph": g, "true": t, "predicted": p}
                for g, t, p in self.predictions
            ],
            "confusion": [
                {"true": t, "predicted": p, "count": c}
                for (t, p), c in sorted(self.confusion.items())
            ],
        }


# The workers _map keeps between calls: (children, workers, the training
# graphs they inherited), where children holds the process and the caller's
# pipe end of each of the workers - 1 forked children. Holding the graphs
# keeps them alive, so no other graph can take their ids while the children
# are kept.
_kept: Optional[tuple[list[tuple[BaseProcess, Connection]], int, list[Graph]]] = None
# Held by a pooled call from choosing the children until their replies are
# in, so that no call shuts down children another thread is using.
_lock = threading.Lock()


def _serve(conn: Connection, train: list[Graph], sizes: list[tuple[int, int]],
           inherited: list[Connection]) -> None:
    """A child's loop: answer each (fn, share) message with (True, results)
    or (False, (the exception a task raised, its formatted traceback)),
    until the caller closes its end or exits."""
    # caller-side ends held here would keep this pipe, or an earlier
    # child's, open after the caller is gone
    for end in inherited:
        end.close()
    try:
        while True:
            fn, share = conn.recv()
            try:
                reply = True, [fn(t, train, sizes) for t in share]
            except Exception as exc:
                reply = False, (exc, traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError):
        pass


def _shut_down() -> None:
    """Close the kept children's pipes and end the children."""
    global _kept
    if _kept is not None:
        children, _kept = _kept[0], None
        for process, conn in children:
            conn.close()
            process.kill()
            process.join()


atexit.register(_shut_down)


def _workers(workers: int, train: list[Graph],
             sizes: list[tuple[int, int]]) -> list[tuple[BaseProcess, Connection]]:
    """The kept children, if there are ``workers - 1`` of them and they
    inherited the same graph objects as ``train``; otherwise ``workers - 1``
    new ones, forked after the kept ones are shut down."""
    global _kept
    if _kept is not None:
        children, width, shipped = _kept
        if width == workers and len(shipped) == len(train) and all(
                a is b for a, b in zip(shipped, train)):
            return children
        _shut_down()
    # fork, so that children inherit the training graphs with the forms the
    # caller built, and import nothing again
    context = multiprocessing.get_context("fork")
    children: list[tuple[BaseProcess, Connection]] = []
    _kept = children, workers, train
    for _ in range(workers - 1):
        mine, theirs = context.Pipe()
        process = context.Process(target=_serve, daemon=True, args=(
            theirs, train, sizes, [conn for _, conn in children] + [mine]))
        try:
            process.start()
        except BaseException:
            mine.close()
            _shut_down()
            raise
        finally:
            theirs.close()
        children.append((process, mine))
    return children


def _replies(sent: list[Connection]) -> list:
    """One reply from each of ``sent``, in order; a child that ended instead
    fails the call and drops every kept worker."""
    try:
        return [conn.recv() for conn in sent]
    except (EOFError, OSError):
        _shut_down()
        raise BrokenProcessPool("a worker process ended during the call") from None


def _map(fn: Callable, tasks: list, workers: int, train: list[Graph]) -> list:
    """``fn(task, train, sizes)`` over ``tasks`` in order, on ``workers``
    processes: the caller and ``workers - 1`` kept children.

    ``train`` is a list of contracted training graphs and ``sizes`` their
    (order, size) pairs. The tasks are cut into shares of
    ``ceil(len(tasks) / workers)``; the caller sends each child one share
    through its pipe, computes the first share itself and then reads the
    children's results, so it starts no thread. Children are forked on the
    first pooled call, inherit ``train`` and ``sizes`` with the forms the
    caller built, and are kept for later calls of the same width with the
    same graph objects, which each training graph's memo returns until the
    graph changes. A task's exception is raised in the caller, after every
    reply is read, with the child's traceback as its cause, and the children
    stay kept; a child that ends fails the call with
    :class:`BrokenProcessPool`, and the next call forks afresh. No child is
    forked for an empty task list, and pooled calls from several threads
    run one at a time.
    """
    if not tasks:
        return []
    sizes = [(h.order, h.size) for h in train]
    if workers == 1:
        return [fn(t, train, sizes) for t in tasks]
    size = math.ceil(len(tasks) / workers)
    shares = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    with _lock:
        children = _workers(workers, train, sizes)
        sent = []
        try:
            for (_, conn), share in zip(children, shares[1:]):
                conn.send((fn, share))
                sent.append(conn)
        except OSError:
            _shut_down()
            raise BrokenProcessPool("a worker process ended before the call") from None
        try:
            results = [fn(t, train, sizes) for t in shares[0]]
        finally:
            # read even when the caller's share raised, so that no reply is
            # left for the next call to take as its own
            replies = _replies(sent)
    for ok, value in replies:
        if not ok:
            exc, trace = value
            raise exc from RuntimeError(f"raised in a worker process:\n{trace}")
        results += value
    return results


# ----------------------------------------------------------------------
# timing benchmark
# ----------------------------------------------------------------------

def _walk(g: Graph, t: int, measure: CentralityMeasure) -> list[int]:
    """The ids one contraction of g at budget t removes, in deletion order."""
    return t_centrality_node_contraction(g, t, measure)[1].removed_ids if t else []


def _benchmark_pair(pair_id: str, g1: Graph, g2: Graph,
                    measures: Sequence[CentralityMeasure], levels: Sequence[TLevel],
                    search: SearchSpec, cm: CostModel) -> list[BenchmarkRecord]:
    if any(level is not TLevel.T0 for level in levels):
        lv1, lv2 = _levels(g1), _levels(g2)
    else:
        lv1 = lv2 = {TLevel.T0: 0}
    # contraction ranks once, on the input graph, so a smaller budget stops
    # the same walk earlier: one walk per graph and measure serves every level
    cells: dict[tuple, tuple[float, float, int]] = {}
    records = []
    for measure in measures:
        start = time.perf_counter()
        walk1 = _walk(g1, max(lv1[level] for level in levels), measure)
        walk2 = _walk(g2, max(lv2[level] for level in levels), measure)
        walked = time.perf_counter() - start
        for level in levels:
            t1, t2 = lv1[level], lv2[level]
            key = (tuple(sorted(walk1[:t1])), tuple(sorted(walk2[:t2])))
            if key not in cells:
                start = time.perf_counter()
                result = run_search(g1.without(key[0]), g2.without(key[1]), cm, search)
                elapsed = time.perf_counter() - start
                if any(key):
                    elapsed += walked
                cells[key] = (result.cost, elapsed, result.expanded_nodes)
            cost, elapsed, expanded = cells[key]
            records.append(BenchmarkRecord(
                pair_id=pair_id, measure=measure, t_level=level,
                t_used_1=t1, t_used_2=t2, search=search.describe(),
                cost=cost, elapsed=elapsed, expanded_nodes=expanded,
            ))
    return records


def sample_pairs(n: int, sample: int, seed: int) -> list[tuple[int, int]]:
    """Seeded sample of index pairs; distinct indices whenever n > 1."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(sample):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        while n > 1 and j == i:
            j = int(rng.integers(n))
        pairs.append((i, j))
    return pairs


def run_timing_benchmark(
    corpus: Corpus,
    measures: Sequence[CentralityMeasure],
    levels: Sequence[TLevel],
    search: SearchSpec,
    sample: int,
    seed: int,
    cm: Optional[CostModel] = None,
) -> list[BenchmarkRecord]:
    """Run the (pair x measure x level) grid on a seeded pair sample.

    Each cell contracts both graphs at that graph's own level budget with
    the cell's measure, runs the selected search, and records cost, wall
    time, and expansion count. Per pair, each graph is contracted once per
    measure, at its largest budget among ``levels``, and each cell takes
    the first t removals of that walk (a smaller budget stops the same walk
    earlier). Cells that remove the same node sets from both graphs are
    searched once and share their record fields (see
    :class:`BenchmarkRecord` for what ``elapsed`` covers). The budgets come
    from each graph's memo, but the walks are made on every call, since
    ``elapsed`` includes them. The pairs run one after another in the
    calling process, and records come back sorted by (pair, measure, level).
    """
    if sample < 1:
        raise ValueError("sample must be >= 1")
    if not corpus.graphs:
        raise ValueError("corpus is empty")
    if not measures or not levels:
        raise ValueError("need at least one measure and one level")
    cm = cm or CostModel()
    graphs = corpus.graphs
    records = []
    for k, (i, j) in enumerate(sample_pairs(len(graphs), sample, seed)):
        records += _benchmark_pair(f"{k:05d}:{graphs[i].name}|{graphs[j].name}",
                                   graphs[i], graphs[j], measures, levels, search, cm)
    level_order = {lv: i for i, lv in enumerate(TLevel)}
    records.sort(key=lambda r: (r.pair_id, r.measure.value, level_order[r.t_level]))
    return records


def summarize_benchmark(records: Sequence[BenchmarkRecord]) -> dict:
    """Per-(measure, level) means of cost, wall time, and expansion count."""
    groups: dict[tuple[str, str], list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.measure.value, r.t_level.value), []).append(r)
    means = []
    for (measure, level), rs in sorted(groups.items()):
        means.append({
            "measure": measure,
            "level": level,
            "pairs": len(rs),
            "mean_cost": float(np.mean([r.cost for r in rs])),
            "mean_elapsed_seconds": float(np.mean([r.elapsed for r in rs])),
            "mean_expanded_nodes": float(np.mean([r.expanded_nodes for r in rs])),
        })
    return {"records": len(records), "means": means}


def write_benchmark_csv(records: Sequence[BenchmarkRecord],
                        path: Union[str, Path]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BenchmarkRecord.CSV_HEADER)
        for r in records:
            writer.writerow(r.csv_row())


# ----------------------------------------------------------------------
# nearest-neighbor classification
# ----------------------------------------------------------------------

def _contract(g: Graph, measure: CentralityMeasure, level: TLevel) -> Graph:
    """g contracted at its own budget for the level, kept in g's memo until
    g changes; callers must not modify the result."""
    h = g._memo.get((measure, level))
    if h is None:
        h = t_centrality_node_contraction(g, _levels(g)[level], measure)[0]
        g._memo[(measure, level)] = h
    return h


def _nearest(task, train: list[Graph], sizes: list[tuple[int, int]]) -> tuple[int, int, int]:
    """The index of the training graph nearest to one contracted test graph,
    and the searches and bounds it took; ``train`` holds the contracted
    training graphs and ``sizes`` their (order, size) pairs.

    Every training graph enters a heap under its size bound,
    ``x_node * |n1 - n2| + x_edge * |m1 - m2|``, which never exceeds its
    bipartite bound. The top entry is examined until its key exceeds the
    best cost so far (with a relative margin of 1e-9 for rounding): a size
    bound is replaced by the graph's bipartite bound, and a bipartite bound
    is popped and its graph searched. Bipartite bounds thus leave the heap
    in (bound, index) order, and are computed only for graphs whose size
    bound does not rule them out. Every graph left unsearched lies strictly
    farther than the best, so the (cost, index) argmin is the one that
    searching every training graph would give.
    """
    h, search, cm = task
    n, m = h.order, h.size
    heap = [(cm.x_node * abs(n - ni) + cm.x_edge * abs(m - mi), i, False)
            for i, (ni, mi) in enumerate(sizes)]
    heapq.heapify(heap)
    best_cost, nearest = math.inf, -1
    searches = bounds = 0
    while heap:
        key, i, assigned = heap[0]
        if key > best_cost + 1e-9 * (1.0 + best_cost):
            break
        if not assigned:
            heapq.heapreplace(heap, (bipartite_lower_bound(h, train[i], cm), i, True))
            bounds += 1
            continue
        heapq.heappop(heap)
        cost = run_search(h, train[i], cm, search).cost
        searches += 1
        if (cost, i) < (best_cost, nearest):
            best_cost, nearest = cost, i
    return nearest, searches, bounds


def nn_classify(
    train: Corpus,
    test: Corpus,
    measure: CentralityMeasure,
    level: TLevel,
    search: SearchSpec,
    cm: Optional[CostModel] = None,
    workers: int = 1,
) -> ClassificationResult:
    """Predict each test graph's class from its nearest training graph.

    Distances are contracted edit distances (each graph contracted at its
    own level budget with the given measure). Ties go to the lowest
    training index.

    A training graph is searched only while its
    :func:`~cged.ged.bipartite_lower_bound` against the test graph does not
    exceed the best cost found so far, and that bound is computed only when
    the cheaper size bound does not already exceed it (see
    :func:`_nearest`). Both are lower bounds on the exact distance,
    and beam's cost is never below the exact distance, so every skipped
    graph is strictly farther than the best under either search: the
    predictions equal those of searching every training graph. ``searches``,
    ``bounds`` and ``pairs`` in the result count the searches run, the
    bipartite bounds computed and the (test, training) pairs.

    Each graph's budgets and contraction are kept in the graph's memo until
    it changes, so a later call with the same training corpus contracts
    only its own test graphs. ``workers`` processes search, the calling
    process among them. Test graphs are contracted in the calling process,
    so the other workers receive them contracted; those workers are forked
    with the contracted training graphs and kept for later calls with the
    same ``workers`` and training graphs (see :func:`_map`). Workers return
    the index of the nearest training graph, and its class is read in the
    calling process, so a relabelled training graph is never served stale.
    """
    if not train.graphs:
        raise ValueError("training corpus is empty")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cm = cm or CostModel()
    train_contracted = [_contract(g, measure, level) for g in train.graphs]
    tasks = [(_contract(g, measure, level), search, cm) for g in test.graphs]
    outcomes = _map(_nearest, tasks, workers, train_contracted)
    return ClassificationResult.from_predictions(
        [(g.name or "", g.class_label or "", train.graphs[i].class_label or "")
         for g, (i, _, _) in zip(test.graphs, outcomes)],
        searches=sum(n for _, n, _ in outcomes),
        bounds=sum(b for _, _, b in outcomes), pairs=len(test.graphs) * len(train.graphs))
