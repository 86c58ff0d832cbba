"""Benchmark and classification harness.

Two experiments are reproduced here: per-pair timing/expansion benchmarks
across centrality measures and contraction levels, and nearest-neighbor
classification where the distance is the contracted edit distance.
Classification puts the bipartite lower bound of :mod:`cged.ged` in front
of every search and skips the training graphs whose bound shows they
cannot be the nearest; since the bound never exceeds the exact distance,
and beam never returns less than it, the predictions are those of
searching every training graph, under either search. Two cheaper bounds
that never exceed it, a size bound and then the Hausdorff bound, decide
which bipartite bounds are worth computing.

Both experiments keep what they derive from a graph in the graph's memo
until the graph changes: its T-level budgets, one contraction walk per
centrality measure at its T3* budget (the largest), and one contracted
graph per removed-node set. Every level takes a prefix of the measure's
walk, so a graph is walked once per measure however many calls, levels or
pairs use it, and a training set is contracted once however many calls
classify against it. Each contracted graph's array form holds the labels
and degrees its bounds read, so a later call prices only the bound's cells.

Levels follow the iterated-degree convention: level Tk* contracts, per
graph, as many nodes as a degree-1..k contraction chain of that graph
removes; T0 contracts nothing. The two graphs of a pair may therefore use
different t values.

Everything is deterministic under a fixed seed: pair sampling and search
tie-breaking follow a total order. The timing grid runs in the calling
process, so no transfer to another process enters its timings.
Classification can search on several processes (``workers=N``: the caller
and, for T test graphs, min(N, T) - 1 children forked on the first such
call and kept for later ones, see :func:`_map`); each task depends only on
its own inputs and on the training graphs its process holds, and results
come back in task order, so its predictions are byte-identical whatever
the number of workers.
"""

from __future__ import annotations

import atexit
import csv
import functools
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

from . import kernels
from .centrality import CentralityMeasure
from .contraction import _degree_passes, t_centrality_node_contraction
from .costs import CostModel, _cost_model
from .dataset import Corpus
from .ged import SearchSpec, bipartite_lower_bound, hausdorff_lower_bound, run_search
from .graph import Graph, GraphArrays, _check_int, _check_type


class TLevel(Enum):
    """A contraction level: Tk* removes, per graph, as many nodes as a
    degree-1..k contraction chain of that graph removes, and T0 removes
    none. ``k`` is that number, 0 for T0, and indexes the per-graph tuples
    of :func:`_levels` and :func:`_walk`."""

    T0 = "T0"
    T1STAR = "T1*"
    T2STAR = "T2*"
    T3STAR = "T3*"

    def __init__(self, value: str) -> None:
        self.k = int(value[1])  # "T1*" gives 1

    def __str__(self) -> str:
        return self.value


def parse_level(s: str) -> TLevel:
    """The level spelled ``s``, ignoring case and surrounding spaces: its
    value (``T1*``), its name (``T1STAR``) or ``T`` and its number (``T1``);
    anything but a str raises ``ValueError``."""
    _check_type(s, str, "level")
    key = s.strip().lower()
    for level in TLevel:
        if key in (level.value.lower(), level.name.lower(), f"t{level.k}"):
            return level
    raise ValueError(f"unknown level {s!r}; use T0, T1*, T2* or T3*")


def t_star_levels(g: Graph) -> dict[TLevel, int]:
    """Per-level contraction budget of one graph: 0 at T0, the size of a
    degree-1..k contraction chain at Tk*.

    The degree-1..3 chain contains the shorter ones, so one run of it gives
    every budget: Tk* counts the removals of its first k passes. Only the
    chain's report is read, so no contracted graph is built.
    """
    report = _degree_passes(g, range(1, 4))
    passes = [int(p) for _, p in report.removed]  # the degree pass of each removal
    return {level: sum(p <= level.k for p in passes) for level in TLevel}


def _levels(g: Graph) -> tuple[int, ...]:
    """:func:`t_star_levels` of g as a tuple of budgets indexed by
    :attr:`TLevel.k`, kept in g's memo until g changes."""
    levels = g._memo.get("levels")
    if levels is None:
        budgets = t_star_levels(g)
        levels = g._memo["levels"] = tuple(budgets[level] for level in TLevel)
    return levels


def _walk(g: Graph, measure: CentralityMeasure) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """g's contraction walk with ``measure``, kept in g's memo under the
    measure's value until g changes: the seconds the walk took, and a tuple
    indexed by :attr:`TLevel.k` of each level's removed ids, sorted (the key
    :func:`_without` keeps that level's graph under).

    Contraction ranks once, on the input graph, so a smaller budget stops
    the same walk earlier: g is walked once, at its T3* budget (the largest
    any level uses, last in :func:`_levels`), and each level removes the
    first t ids of that walk. The seconds cover the centrality and the walk
    (which also builds the T3* graph, kept for :func:`_without` when it
    removes a node), but not g's own array form, which is built before the
    clock starts (a search of g needs it too), nor the other levels'
    graphs, which :func:`_without` builds on their first read. A graph
    whose T3* budget is 0 is not walked (no centrality is computed): it
    removes no id, and the walk takes 0.0 s.

    The memo is keyed by the measure's ``_value_`` string: hashing an enum
    member, or reading its ``value``, runs Python code, and
    :func:`_contract` looks a walk up for every graph of every call.
    """
    walk = g._memo.get(measure._value_)
    if walk is None:
        levels = _levels(g)
        ids: list[int] = []
        seconds = 0.0
        if levels[-1]:
            g.arrays()
            start = time.perf_counter()
            h, report = t_centrality_node_contraction(g, levels[-1], measure)
            seconds = time.perf_counter() - start
            ids = report.removed_ids
            if ids:
                g._memo.setdefault(("without", tuple(sorted(ids))), h)
        walk = g._memo[measure._value_] = seconds, tuple(
            tuple(sorted(ids[:t])) for t in levels)
    return walk


def _without(g: Graph, ids: tuple[int, ...]) -> Graph:
    """g minus the sorted node ids ``ids``: g itself for no ids, and
    otherwise a graph kept in g's memo until g changes, so its array form is
    built once and levels and measures that remove the same nodes share one
    graph object. Callers must not modify the result."""
    if not ids:
        return g
    h = g._memo.get(("without", ids))
    if h is None:
        h = g._memo[("without", ids)] = g.without(ids)
    return h


def _contract(g: Graph, measure: CentralityMeasure, level: TLevel) -> Graph:
    """g contracted at its own budget for the level with ``measure``: the
    :func:`_without` graph of the walk's ids at index ``level.k`` (see
    :func:`_walk`); at T0, g itself, for which no walk is made. Callers
    must not modify the result."""
    if level is TLevel.T0:
        return g
    return _without(g, _walk(g, measure)[1][level.k])


@dataclass
class BenchmarkRecord:
    """One (pair, measure, level) cell of the benchmark grid.

    ``contraction_seconds`` is what the cell's measure took to contract
    both graphs when they were first contracted with it, or 0.0 when the
    cell removes no node. For each graph that is one walk at its T3* budget
    (whatever levels the call asks for): the centrality, the walk and
    building the T3* graph it ends on, but not the other levels' contracted
    graphs, which are built on each level's first read. The walk is kept in
    the graph's memo, so a later call reports the seconds of that first,
    cold walk, and every level of a (graph, measure) reports the same
    figure. ``search_seconds`` is the time to search the cell's contracted
    pair; the first search of a contracted graph also builds its array
    form, and the assignment solver is imported before the first search,
    outside the clock. Cells of one pair that remove the same node sets
    share one search, so they carry the same ``cost``, ``search_seconds``
    and ``expanded_nodes``; every T0 cell of a pair is one such group.
    """

    pair_id: str
    measure: CentralityMeasure
    t_level: TLevel
    t_used_1: int
    t_used_2: int
    search: str
    cost: float
    contraction_seconds: float
    search_seconds: float
    expanded_nodes: int

    CSV_HEADER = ("pair_id", "measure", "level", "t_used_1", "t_used_2", "search",
                  "cost", "contraction_seconds", "search_seconds", "expanded_nodes")

    def csv_row(self) -> tuple:
        return (self.pair_id, self.measure.value, self.t_level.value,
                self.t_used_1, self.t_used_2, self.search, repr(self.cost),
                repr(self.contraction_seconds), repr(self.search_seconds),
                self.expanded_nodes)


@dataclass
class ClassificationResult:
    """Per-graph predictions plus accuracy and confusion counts.

    ``pairs`` counts the (test, training) graph pairs, ``hausdorff_bounds``
    the Hausdorff lower bounds computed, ``bounds`` the bipartite lower
    bounds computed and ``searches`` the edit-distance searches run, so
    ``searches <= bounds <= hausdorff_bounds <= pairs``: the size bound rules
    out the pairs left without a Hausdorff bound, the Hausdorff bound those
    left without a bipartite bound, and the bipartite bound those left
    unsearched.
    """

    predictions: list[tuple[str, str, str]]  # (graph name, true, predicted)
    accuracy: float
    searches: int
    bounds: int
    hausdorff_bounds: int
    pairs: int
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)

    @classmethod
    def from_predictions(cls, preds: list[tuple[str, str, str]], *, searches: int,
                         bounds: int, hausdorff_bounds: int,
                         pairs: int) -> "ClassificationResult":
        confusion: dict[tuple[str, str], int] = {}
        correct = 0
        for _, true, predicted in preds:
            confusion[(true, predicted)] = confusion.get((true, predicted), 0) + 1
            correct += true == predicted
        accuracy = correct / len(preds) if preds else 0.0
        return cls(list(preds), accuracy, searches, bounds, hausdorff_bounds, pairs,
                   confusion)

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "total": len(self.predictions),
            "correct": sum(t == p for _, t, p in self.predictions),
            "searches": self.searches,
            "bounds": self.bounds,
            "hausdorff_bounds": self.hausdorff_bounds,
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


# The workers _map keeps between calls: (children, w, the array forms of
# the training graphs they inherited), where children holds the process and
# the caller's pipe end of each of the w - 1 forked children.
# Holding the forms keeps them alive, so no other form can take their ids
# while the children are kept.
_kept: Optional[tuple[list[tuple[BaseProcess, Connection]], int, list[GraphArrays]]] = None
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


def _workers(w: int, train: list[Graph], forms: list[GraphArrays],
             sizes: list[tuple[int, int]]) -> list[tuple[BaseProcess, Connection]]:
    """The kept children, if there are ``w - 1`` of them and they
    inherited the same form objects as ``forms``, the array forms of
    ``train``; otherwise ``w - 1`` new ones, forked after the kept
    ones are shut down. The new set is kept before the first fork, so that
    :func:`_map` shuts down a partly forked one."""
    global _kept
    if _kept is not None:
        children, width, shipped = _kept
        if width == w and len(shipped) == len(forms) and all(
                a is b for a, b in zip(shipped, forms)):
            return children
        _shut_down()
    # fork, so that children inherit the training graphs with the forms the
    # caller built, and import nothing again
    context = multiprocessing.get_context("fork")
    children: list[tuple[BaseProcess, Connection]] = []
    _kept = children, w, forms
    for _ in range(w - 1):
        mine, theirs = context.Pipe()
        try:
            process = context.Process(target=_serve, daemon=True, args=(
                theirs, train, sizes, [conn for _, conn in children] + [mine]))
            process.start()
        except BaseException:
            mine.close()
            raise
        finally:
            theirs.close()
        children.append((process, mine))
    return children


def _pipe(call: Callable, *args):
    """``call(*args)``, a send or receive on a child's pipe; a child that
    ended fails the call with :class:`BrokenProcessPool`."""
    try:
        return call(*args)
    except (EOFError, OSError):
        raise BrokenProcessPool("a worker process ended during the call") from None


def _map(fn: Callable, tasks: list, workers: int, train: list[Graph]) -> list:
    """``fn(task, train, sizes)`` over ``tasks`` in order, on ``w =
    min(workers, len(tasks))`` processes: the caller and ``w - 1`` kept
    children, so no child is forked that would have no task.

    ``train`` is a list of contracted training graphs and ``sizes`` their
    (order, size) pairs. The n tasks are cut, in order, into w shares of
    near-equal size, share k being ``tasks[k * n // w:(k + 1) * n // w]``;
    the caller sends each child one share through its pipe, computes the
    first share itself and then reads the children's results, so it starts
    no thread. Children are forked on the first pooled call and inherit
    ``train`` and ``sizes`` with the array forms the caller builds before it
    forks. They are kept for later calls of the same w whose training
    graphs have the same form objects:
    every change to a graph replaces its form. The children outlive a call
    only when it read every reply, so that none is left for the next call to
    take as its own. A task that raises in a child comes back as a reply:
    the caller raises it, with the child's traceback as its cause, once
    every reply is read, and keeps the children. Any other failure ends
    them, and the next call forks afresh: a task that raises in the caller's
    own share, an interrupt while the caller waits, or a child that ends,
    which fails the call with :class:`BrokenProcessPool`. No child is forked
    for fewer than two tasks, and calls from several threads run in turn.
    """
    sizes = [(h.order, h.size) for h in train]
    n = len(tasks)
    w = min(workers, n)
    if w <= 1:
        return [fn(t, train, sizes) for t in tasks]
    shares = [tasks[k * n // w:(k + 1) * n // w] for k in range(w)]
    forms = [h.arrays() for h in train]
    with _lock:
        try:
            children = _workers(w, train, forms, sizes)
            for (_, conn), share in zip(children, shares[1:]):
                _pipe(conn.send, (fn, share))
            results = [fn(t, train, sizes) for t in shares[0]]
            replies = [_pipe(conn.recv) for _, conn in children]
        except BaseException:
            _shut_down()
            raise
    for ok, value in replies:
        if not ok:
            exc, trace = value
            raise exc from RuntimeError(f"raised in a worker process:\n{trace}")
        results += value
    return results


# ----------------------------------------------------------------------
# timing benchmark
# ----------------------------------------------------------------------

def _benchmark_pair(pair_id: str, g1: Graph, g2: Graph,
                    measures: Sequence[CentralityMeasure], levels: Sequence[TLevel],
                    search: SearchSpec, described: str,
                    cm: CostModel) -> list[BenchmarkRecord]:
    """The pair's records, in the order of ``measures`` and then ``levels``;
    ``described`` is ``search.describe()``."""
    walked = any(level is not TLevel.T0 for level in levels)
    if walked:
        budgets1, budgets2 = _levels(g1), _levels(g2)
    else:
        budgets1 = budgets2 = (0,)
    n1, n2 = g1.order, g2.order
    # the memo keeps one contracted graph per removed-node set, so cells
    # whose contracted pairs are the same objects share one search
    cells: dict[tuple[int, int], tuple[float, float, int]] = {}
    records = []
    for measure in measures:
        if walked:
            (seconds1, ids1), (seconds2, ids2) = _walk(g1, measure), _walk(g2, measure)
            walk_seconds = seconds1 + seconds2
        else:
            ids1 = ids2 = ((),)
            walk_seconds = 0.0
        for level in levels:
            k = level.k
            h1, h2 = _without(g1, ids1[k]), _without(g2, ids2[k])
            key = id(h1), id(h2)
            if key not in cells:
                start = time.perf_counter()
                result = run_search(h1, h2, cm, search)
                cells[key] = (result.cost, time.perf_counter() - start, result.expanded_nodes)
            cost, seconds, expanded = cells[key]
            removes = h1.order < n1 or h2.order < n2
            records.append(BenchmarkRecord(
                pair_id, measure, level, budgets1[k], budgets2[k], described, cost,
                walk_seconds if removes else 0.0, seconds, expanded))
    return records


def sample_pairs(n: int, sample: int, seed: int) -> list[tuple[int, int]]:
    """Seeded sample of index pairs; distinct indices whenever n > 1. ``n``
    and ``sample`` are ints >= 1 and ``seed`` an int >= 0, checked before
    any draw. The pairs of each (n, sample, seed) are kept, so a repeat
    call only copies them."""
    _check_int(n, "n", 1)
    _check_int(sample, "sample", 1)
    _check_int(seed, "seed", 0)
    return list(_sampled_pairs(n, sample, seed))


@functools.lru_cache(maxsize=256)
def _sampled_pairs(n: int, sample: int, seed: int) -> tuple[tuple[int, int], ...]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(sample):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        while n > 1 and j == i:
            j = int(rng.integers(n))
        pairs.append((i, j))
    return tuple(pairs)


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
    the cell's measure, runs the selected search, and records cost,
    contraction and search time, and expansion count. Each graph is walked
    once per measure, at its T3* budget, the first time a call with a Tk*
    level needs it; each cell takes the first t removals of that walk (a
    smaller budget stops the same walk earlier). A call with only T0 walks
    nothing. The walk and the contracted graphs it gives, one per
    removed-node set, are kept in the graph's memo, so a later call on the
    same graphs only searches. Cells that remove the same node sets from
    both graphs are searched once and share their record fields (see
    :class:`BenchmarkRecord` for what the two timings cover). The pairs run
    one after another in the calling process, in sample order, and each
    pair runs its measures in the order of their values and its levels in
    T-level order, so the records are produced in (pair, measure, level)
    order, whatever the sample size or the order the arguments give. A
    mistyped or repeated measure or level, a ``sample`` or ``seed`` that
    :func:`sample_pairs` rejects, a ``search`` that is not a
    :class:`~cged.ged.SearchSpec`, or a ``cm`` that is neither ``None`` nor
    a :class:`CostModel`, raises ``ValueError`` before any search.
    """
    if not corpus.graphs:
        raise ValueError("corpus is empty")
    graphs = corpus.graphs
    pairs = sample_pairs(len(graphs), sample, seed)
    if not measures or not levels:
        raise ValueError("need at least one measure and one level")
    for kind, member, values in (("measure", CentralityMeasure, measures),
                                 ("level", TLevel, levels)):
        for i, value in enumerate(values):
            _check_type(value, member, kind)
            if value in values[:i]:
                raise ValueError(f"{kind} {value} is given more than once")
    _check_type(search, SearchSpec, "search")
    cm = _cost_model(cm)
    measures = sorted(measures, key=lambda m: m.value)
    levels = [level for level in TLevel if level in levels]
    described = search.describe()
    kernels.warm_up()  # scipy's import stays out of the first search's clock
    records = []
    for k, (i, j) in enumerate(pairs):
        records += _benchmark_pair(f"{k:05d}:{graphs[i].name}|{graphs[j].name}",
                                   graphs[i], graphs[j], measures, levels, search,
                                   described, cm)
    return records


def summarize_benchmark(records: Sequence[BenchmarkRecord]) -> dict:
    """Per-(measure, level) means of cost, contraction and search time, and
    expansion count."""
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
            "mean_contraction_seconds": float(np.mean([r.contraction_seconds for r in rs])),
            "mean_search_seconds": float(np.mean([r.search_seconds for r in rs])),
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

def _nearest(task, train: list[Graph],
             sizes: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The index of the training graph nearest to one contracted test graph,
    and the searches, bipartite bounds and Hausdorff bounds it took;
    ``train`` holds the contracted training graphs and ``sizes`` their
    (order, size) pairs.

    Every training graph enters a heap under its size bound,
    ``x_node * |n1 - n2| + x_edge * |m1 - m2|``, as an (key, index, tier)
    entry of tier 0. The top entry is examined until its key exceeds the
    best cost so far (with a relative margin of 1e-9 for rounding): a size
    bound is replaced by the larger of it and the graph's
    :func:`~cged.ged.hausdorff_lower_bound` (tier 1), a Hausdorff key by
    the graph's :func:`~cged.ged.bipartite_lower_bound` (tier 2), and a
    bipartite bound is popped and its graph searched. The size and
    Hausdorff bounds never exceed the bipartite bound; the Hausdorff key is
    lowered by a relative 1e-12, more than the rounding of its sums, so that
    it stays below a bipartite bound it equals in exact arithmetic. Every
    key thus lies at or below its graph's bipartite bound, so bipartite
    bounds leave the heap in (bound, index) order, and each tier is computed
    only for graphs the tier below does not rule out. Every graph left
    unsearched lies strictly farther than the best, so the (cost, index)
    argmin is the one that searching every training graph would give.
    """
    h, search, cm = task
    n, m = h.order, h.size
    heap = [(cm.x_node * abs(n - ni) + cm.x_edge * abs(m - mi), i, 0)
            for i, (ni, mi) in enumerate(sizes)]
    heapq.heapify(heap)
    best_cost, nearest = math.inf, -1
    searches = bounds = hausdorff = 0
    while heap:
        key, i, tier = heap[0]
        if key > best_cost + 1e-9 * (1.0 + best_cost):
            break
        if tier == 0:
            low = hausdorff_lower_bound(h, train[i], cm) * (1.0 - 1e-12)
            heapq.heapreplace(heap, (low if low > key else key, i, 1))
            hausdorff += 1
        elif tier == 1:
            heapq.heapreplace(heap, (bipartite_lower_bound(h, train[i], cm), i, 2))
            bounds += 1
        else:
            heapq.heappop(heap)
            cost = run_search(h, train[i], cm, search).cost
            searches += 1
            if (cost, i) < (best_cost, nearest):
                best_cost, nearest = cost, i
    return nearest, searches, bounds, hausdorff


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
    exceed the best cost found so far. That bound is computed only when the
    cheaper :func:`~cged.ged.hausdorff_lower_bound` does not already exceed
    it, and the Hausdorff bound only when the cheaper size bound does not
    (see :func:`_nearest`). All three are lower bounds on the exact
    distance, and beam's cost is never below the exact distance, so every
    skipped graph is strictly farther than the best under either search:
    the predictions equal those of searching every training graph.
    ``searches``, ``bounds``, ``hausdorff_bounds`` and ``pairs`` in the
    result count the searches run, the bipartite and the Hausdorff bounds
    computed and the (test, training) pairs.

    Each graph's budgets, walk and contracted graph are kept in the graph's
    memo until it changes, as the timing grid keeps them (see
    :func:`_contract`), so a later call with the same training corpus
    contracts only its own test graphs; each contracted graph's array form
    holds the labels and degrees its bounds read, so a later call prices
    only the bounds' cells. An empty training or test corpus raises
    ``ValueError``; it and the types of ``measure``, ``level``, ``search``
    and ``cm`` (``None`` or a :class:`CostModel`), and ``workers`` (an int
    >= 1), are checked before any work.
    ``min(workers, len(test.graphs))`` processes search, the calling
    process among them, so no idle worker is forked. Test graphs are
    contracted in the calling process, so the other workers receive them
    contracted; those workers are forked with the contracted training graphs
    and their array forms, and kept for later calls with the same number of
    processes and the same forms (see :func:`_map`); a failed call or
    a change to a training graph (which replaces its form) ends them.
    Workers return the index of the nearest training graph, and its class is
    read in the calling process, so a relabelled training graph is never
    served stale.
    """
    if not train.graphs:
        raise ValueError("training corpus is empty")
    if not test.graphs:
        raise ValueError("test corpus is empty")
    _check_type(measure, CentralityMeasure, "measure")
    _check_type(level, TLevel, "level")
    _check_type(search, SearchSpec, "search")
    _check_int(workers, "workers", 1)
    cm = _cost_model(cm)
    train_contracted = [_contract(g, measure, level) for g in train.graphs]
    tasks = [(_contract(g, measure, level), search, cm) for g in test.graphs]
    outcomes = _map(_nearest, tasks, workers, train_contracted)
    return ClassificationResult.from_predictions(
        [(g.name or "", g.class_label or "", train.graphs[i].class_label or "")
         for g, (i, _, _, _) in zip(test.graphs, outcomes)],
        searches=sum(o[1] for o in outcomes), bounds=sum(o[2] for o in outcomes),
        hausdorff_bounds=sum(o[3] for o in outcomes),
        pairs=len(test.graphs) * len(train.graphs))
