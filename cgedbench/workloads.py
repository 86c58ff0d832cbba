"""The three workloads: what one round does, how its outputs are checked.

Every workload has a reference path and a fast path, timed apart:

============  ==========================  ============================
workload      reference path              fast path
============  ==========================  ============================
letter-grid   T0 grid cells (exact A*)    T1*/T2*/T3* grid cells
mol-exact     exact A* on every pair      beam (w = 10) on every pair
nn-classify   1-NN at T1*, one process    1-NN at T1*, a pool of 2
============  ==========================  ============================

A round runs both paths once over the workload's whole input, so every
round attempts the same operations. The two paths alternate in small calls
(one pair, or one chunk of test graphs, at a time), each timed by the
run's :class:`stopwatch.Stopwatch` under the path name ``"reference"`` or
``"fast"``, so both see the same stretches of the host's drifting speed.
Outputs are checked against oracles that share no code with cged, and
every later round must reproduce the first round's outputs exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracles
from cged import dataset, evaluation, ged
from cged.centrality import CentralityMeasure
from cged.contraction import t_centrality_node_contraction
from cged.dataset import Corpus, Split, synthesize_letter_like, split_corpus
from cged.evaluation import TLevel
from stopwatch import Stopwatch

MEASURES = tuple(CentralityMeasure)
TSTAR = (TLevel.T1STAR, TLevel.T2STAR, TLevel.T3STAR)
REL_TOL = 1e-9


@dataclass
class Round:
    """One pass over a workload's input: counts and outputs."""

    ref_ops: int
    fast_ops: int
    failed: int = 0
    outputs: object = None  # compared between rounds; None if the round failed
    detail: object = None   # what the oracle checks need beyond ``outputs``

    @property
    def attempted(self) -> int:
        return self.ref_ops + self.fast_ops


def same_cost(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


@dataclass
class Workload:
    seed: int

    def load(self, indexes: list[Path]) -> list[Corpus]:
        splits = (Split.TRAIN, Split.TEST)
        return [dataset.load_iam_corpus(p, splits[i]) for i, p in enumerate(indexes)]


# ----------------------------------------------------------------------
# letter-grid
# ----------------------------------------------------------------------

class LetterGrid(Workload):
    """The paper's timing grid: pairs x 4 measures x {T0, T1*, T2*, T3*}, exact A*.

    Each sampled pair is its own two-graph corpus, so that its T0 cells and
    its Tk* cells are two timed ``run_timing_benchmark`` calls.
    """

    PAIRS = 120

    def write_inputs(self, workdir: Path) -> list[Path]:
        return [inputs.write_corpus(inputs.letter_graphs(self.seed), workdir / "letter",
                                    "letter.cxl")]

    def plan(self, corpora: list[Corpus], traced: bool) -> Round:
        return Round(ref_ops=self.PAIRS * len(MEASURES),
                     fast_ops=self.PAIRS * len(MEASURES) * len(TSTAR))

    def round(self, corpora: list[Corpus], rnd: Round, traced: bool,
              watch: Stopwatch) -> None:
        (corpus,) = corpora
        graphs = corpus.graphs
        search = ged.SearchSpec.astar()
        rows = []
        for k, (i, j) in enumerate(evaluation.sample_pairs(len(graphs), self.PAIRS,
                                                           self.seed)):
            pair = Corpus(f"pair{k}", [graphs[i], graphs[j]])
            t0 = watch.time("reference", len(MEASURES), evaluation.run_timing_benchmark,
                            pair, MEASURES, [TLevel.T0], search, 1, self.seed)
            tk = watch.time("fast", len(MEASURES) * len(TSTAR),
                            evaluation.run_timing_benchmark,
                            pair, MEASURES, TSTAR, search, 1, self.seed)
            # the pair id names the graphs in the order they were searched
            rows += [(f"{k:03d}:{r.pair_id.split(':', 1)[1]}", r.measure.value,
                      r.t_level.value, r.t_used_1, r.t_used_2, r.cost, r.expanded_nodes)
                     for r in t0 + tk]
        rnd.failed = rnd.attempted - len(rows)
        rnd.outputs = sorted(rows)

    def _t0_t2(self, rnd: Round) -> list[tuple[float, float]]:
        """(T0 cost, T2* cost) of every (pair, measure)."""
        costs = {(pid, m, lv): cost for pid, m, lv, _, _, cost, _ in rnd.outputs}
        return [(c0, costs[(pid, m, "T2*")])
                for (pid, m, lv), c0 in costs.items() if lv == "T0"]

    def agreement(self, rnd: Round) -> float:
        """Mean over (pair, measure) of min/max of the T0 and T2* costs."""
        return statistics.fmean(min(c0, c2) / max(c0, c2) if max(c0, c2) > 0 else 1.0
                                for c0, c2 in self._t0_t2(rnd))

    def figures(self, rnd: Round, metrics: dict) -> dict:
        gap = statistics.fmean(abs(c2 - c0) / c0 for c0, c2 in self._t0_t2(rnd) if c0 > 0)
        out = {"t2_cost_gap": (gap, "ratio")}
        if "fast_ops_per_s" in metrics:
            out["t0_cells_per_s"] = (metrics["reference_ops_per_s"], "cells/s")
            out["tstar_cells_per_s"] = (metrics["fast_ops_per_s"], "cells/s")
        return out

    def check(self, corpora: list[Corpus], rounds: list[Round], traced: bool) -> list[str]:
        (corpus,) = corpora
        by_name = {g.name: g for g in corpus.graphs}
        rnd = rounds[0]
        problems = []
        cells: dict[str, list] = {}
        for pid, m, lv, t1, t2, cost, _ in rnd.outputs:
            cells.setdefault(pid, []).append((m, lv, t1, t2, cost))
        if len(cells) != self.PAIRS:
            problems.append(f"grid covers {len(cells)} pairs, expected {self.PAIRS}")
        enumerated: dict[tuple, float] = {}

        def reference(h1, h2) -> float:
            key = (repr(h1.node_items()), repr(h1.edges()), repr(h2.node_items()),
                   repr(h2.edges()))
            if key not in enumerated:
                enumerated[key] = oracles.enumerate_ged(h1, h2)
            return enumerated[key]

        budgets = {}
        for g in corpus.graphs:
            lv = evaluation.t_star_levels(g)
            budgets[g.name] = lv
            if not lv[TLevel.T1STAR] <= lv[TLevel.T2STAR] <= lv[TLevel.T3STAR]:
                problems.append(f"{g.name}: T-level budgets decrease with k: {lv}")
        components = {name: oracles.component_count(g) for name, g in by_name.items()}
        for pid, rows in sorted(cells.items()):
            name1, name2 = pid.split(":", 1)[1].split("|")
            g1, g2 = by_name[name1], by_name[name2]
            t0_costs = {cost for m, lv, _, _, cost in rows if lv == "T0"}
            if len(t0_costs) != 1:
                problems.append(f"{pid}: T0 cost differs between measures: {t0_costs}")
            for m, lv, t1, t2, cost in rows:
                level = evaluation.parse_level(lv)
                if (t1, t2) != (budgets[name1][level], budgets[name2][level]):
                    problems.append(f"{pid} {m} {lv}: budgets {(t1, t2)} disagree with "
                                    "t_star_levels")
                measure = CentralityMeasure(m)
                h1, _ = t_centrality_node_contraction(g1, t1, measure)
                h2, _ = t_centrality_node_contraction(g2, t2, measure)
                for g, h, t in ((g1, h1, t1), (g2, h2, t2)):
                    if oracles.component_count(h) != components[g.name]:
                        problems.append(f"{pid} {m} {lv}: contraction of {g.name} "
                                        "changed the component count")
                    if not 0 <= g.order - h.order <= t:
                        problems.append(f"{pid} {m} {lv}: {g.name} lost "
                                        f"{g.order - h.order} nodes at budget {t}")
                want = reference(h1, h2)
                if not same_cost(cost, want):
                    problems.append(f"{pid} {m} {lv}: cost {cost!r}, enumeration {want!r}")
        return problems


# ----------------------------------------------------------------------
# mol-exact
# ----------------------------------------------------------------------

class MolExact(Workload):
    """AIDS-like symbolic pairs at T0: exact A* and beam (w = 10) on the same pairs."""

    PAIRS = 150
    BEAM_WIDTH = 10
    BEAM_PASSES = 4  # a single beam pass is too short to time steadily

    def write_inputs(self, workdir: Path) -> list[Path]:
        graphs = [g for pair in inputs.molecule_pairs(self.seed, self.PAIRS) for g in pair]
        return [inputs.write_corpus(graphs, workdir / "mol", "mol.cxl")]

    def plan(self, corpora: list[Corpus], traced: bool) -> Round:
        return Round(ref_ops=self.PAIRS, fast_ops=self.PAIRS * self.BEAM_PASSES)

    def _beam(self, g1, g2):
        for _ in range(self.BEAM_PASSES):
            result = ged.beam_ged(g1, g2, w=self.BEAM_WIDTH)
        return result

    def round(self, corpora: list[Corpus], rnd: Round, traced: bool,
              watch: Stopwatch) -> None:
        graphs = corpora[0].graphs
        pairs = list(zip(graphs[0::2], graphs[1::2]))
        exact, beam = [], []
        for g1, g2 in pairs:
            exact.append(watch.time("reference", 1, ged.astar_ged, g1, g2))
            beam.append(watch.time("fast", self.BEAM_PASSES, self._beam, g1, g2))
        rnd.outputs = [(e.cost, e.expanded_nodes, b.cost, b.expanded_nodes)
                       for e, b in zip(exact, beam)]
        rnd.detail = (pairs, exact, beam)

    def agreement(self, rnd: Round) -> float:
        """Mean over pairs of exact cost / beam cost."""
        return statistics.fmean(e / b if b > 0 else 1.0 for e, _, b, _ in rnd.outputs)

    def figures(self, rnd: Round, metrics: dict) -> dict:
        gap = statistics.fmean((b - e) / e for e, _, b, _ in rnd.outputs if e > 0)
        out = {"beam_cost_gap": (gap, "ratio")}
        if "fast_ops_per_s" in metrics:
            out["exact_s"] = (self.PAIRS / metrics["reference_ops_per_s"], "s")
            out["beam_pairs_per_s"] = (metrics["fast_ops_per_s"], "pairs/s")
        return out

    def check(self, corpora: list[Corpus], rounds: list[Round], traced: bool) -> list[str]:
        pairs, exact, beam = rounds[0].detail
        problems = []
        for k, ((g1, g2), e, b) in enumerate(zip(pairs, exact, beam)):
            # networkx may prune at the claimed cost: a cheaper path shows as a
            # lower value, a claimed cost below the true distance as None
            want = oracles.networkx_ged(g1, g2, upper_bound=e.cost + 0.5)
            if want is None or not same_cost(e.cost, want):
                problems.append(f"pair {k}: exact cost {e.cost!r}, networkx {want!r}")
            if b.cost < e.cost - REL_TOL:
                problems.append(f"pair {k}: beam cost {b.cost!r} below exact {e.cost!r}")
            for label, res in (("exact", e), ("beam", b)):
                problems += [f"pair {k} {label} path: {p}"
                             for p in oracles.verify_path(res, g1, g2)]
        return problems


# ----------------------------------------------------------------------
# nn-classify
# ----------------------------------------------------------------------

class NnClassify(Workload):
    """1-NN classification at T1*: the same split classified serially and pooled.

    The test split is classified in chunks of CHUNK graphs, each chunk once
    serially and once with the pool, so the two paths alternate.
    """

    MEASURE = CentralityMeasure.BETWEENNESS
    LEVEL = TLevel.T1STAR
    WORKERS = 2
    CHUNK = 4

    def write_inputs(self, workdir: Path) -> list[Path]:
        train, test = inputs.nn_split(self.seed)
        return [inputs.write_corpus(train, workdir / "train", "train.cxl"),
                inputs.write_corpus(test, workdir / "test", "test.cxl")]

    def _classify(self, train: Corpus, test: Corpus, workers: int):
        return evaluation.nn_classify(train, test, self.MEASURE, self.LEVEL,
                                      ged.SearchSpec.astar(), workers=workers)

    def plan(self, corpora: list[Corpus], traced: bool) -> Round:
        # spans do not cross process boundaries, so a traced round is serial only
        tests = len(corpora[1].graphs)
        return Round(ref_ops=tests, fast_ops=0 if traced else tests)

    def round(self, corpora: list[Corpus], rnd: Round, traced: bool,
              watch: Stopwatch) -> None:
        train, test = corpora
        serial, pooled = [], []
        for start in range(0, len(test.graphs), self.CHUNK):
            chunk = Corpus(test.name, test.graphs[start:start + self.CHUNK], test.split)
            n = len(chunk.graphs)
            serial += watch.time("reference", n, self._classify, train, chunk, 1).predictions
            if not traced:
                pooled += watch.time("fast", n, self._classify, train, chunk,
                                     self.WORKERS).predictions
        rnd.outputs = [serial, pooled] if not traced else [serial]

    def agreement(self, rnd: Round) -> float:
        """1-NN accuracy at T1*."""
        preds = rnd.outputs[0]
        return sum(t == p for _, t, p in preds) / len(preds)

    def figures(self, rnd: Round, metrics: dict) -> dict:
        out = {"nn_accuracy": (self.agreement(rnd), "fraction")}
        if "fast_ops_per_s" in metrics:
            out["classify_graphs_per_s"] = (metrics["fast_ops_per_s"], "graphs/s")
        return out

    def check(self, corpora: list[Corpus], rounds: list[Round], traced: bool) -> list[str]:
        train, test = corpora
        problems = []
        serial = rounds[0].outputs[0]
        pooled = rounds[0].outputs[1] if not traced else \
            self._classify(train, test, self.WORKERS).predictions
        if pooled != serial:
            problems.append("pooled predictions differ from the serial run's")
        expected = [(g.name, g.class_label) for g in test.graphs]
        if [(name, true) for name, true, _ in serial] != expected:
            problems.append("predictions do not follow the test split")
        classes = {g.class_label for g in train.graphs}
        if any(p not in classes for _, _, p in serial):
            problems.append("a prediction names a class absent from training")
        if self.agreement(rounds[0]) <= 1.0 / len(classes):
            problems.append("accuracy at or below chance")
        # at distortion 0 every graph equals its class prototype, so each test
        # graph contracts exactly like its training twins and lies at distance 0
        clean_train, clean_test = split_corpus(
            synthesize_letter_like(self.seed, 16, 8, 0.0))
        clean = self._classify(clean_train, clean_test, 1)
        if clean.accuracy != 1.0:
            problems.append(f"distortion-0 accuracy {clean.accuracy} at T1*, expected 1.0")
        return problems


WORKLOADS = {
    "letter-grid": LetterGrid,
    "mol-exact": MolExact,
    "nn-classify": NnClassify,
}
