"""Frozen search outcomes: cost, expansion count and edit path per search.

``data/ged_golden.json`` holds 40 seeded graph pairs (coordinate, symbolic
and mixed labels; unlabeled edges and integer or fractional numeric ones;
sparse node ids) with the cost model each pair is priced under. For each
of five searches it holds the exact cost, expansion count and
``path.to_json_dict()`` that the search returned when its entry was
recorded. The ``astar/zero`` and ``beam/*`` entries were recorded with the
numpy expansion kernel that the fused step replaced, the
``astar/bipartite`` ones with the bipartite bound's first version, so any
change to pricing order, tie-breaking or pruning shows up here as a
mismatch.

Two more tables freeze the harness on a seeded letter-like corpus.
``data/grid_golden.json`` holds, per search, every record that
``run_timing_benchmark`` returns over all measures and levels, in the
order it returns them: pair id, measure, level, both budgets, the search
string, the cost as ``float.hex`` and the expansion count.
``data/classify_golden.json`` holds, per (search, measure, level), the
predictions of ``nn_classify`` and its ``searches``, ``bounds`` and
``hausdorff_bounds`` counts. Both were recorded before the harness's
per-cell bookkeeping and the assignment solver's shortcuts went in, so
neither may change the grid's records, their order or the classifier's
work.

``data/bound_golden.json`` holds, for both orders of each of the 40 pairs
of ``ged_golden.json`` under its cost model, the value of
``bipartite_lower_bound`` and ``hausdorff_lower_bound`` as ``float.hex``.
It was recorded before the bipartite bound's fourth assignment
certificate was dropped and its cells were taken from the search's own
cell builder, so neither change may move a bound by a bit.

``data/ged_golden_large.json`` holds 24 seeded pairs of 8 to 10 nodes,
larger than the first table's graphs of at most 6: connected graphs with
symbolic labels and numeric bonds, or coordinate labels and mostly
unlabeled edges, each paired with an edited and renumbered copy of itself
or with an unrelated graph, under five cost models (two with a zero
constant, so prices tie). For ``astar/bipartite`` and ``beam/10`` it holds
the cost as ``float.hex``, the expansion count and the edit path. It was
recorded before the expansion step patched the bound's cells per child
and priced edges against placed neighbours only, so neither may move a
cost, an expansion count or a path. Its ``bipartite-beam/1`` and
``bipartite-beam/3`` entries hold the same for beam guided by the bound
(``ged._search(..., Heuristic.BIPARTITE, w)``). They were recorded before
exact A* left a child's assignment unsolved until the child reached the
top of the open list, so beam, which orders by exact keys only, must not
move either.

Recording keeps every entry already in a table, records the entries it
lacks and drops those no longer listed; the bound table is written only
when it is missing::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import random
from pathlib import Path

import pytest

import cged
from cged import CostModel, astar_ged, beam_ged
from cged.centrality import CentralityMeasure
from cged.dataset import split_corpus, synthesize_letter_like
from cged.evaluation import TLevel, nn_classify, run_timing_benchmark
from cged.ged import (Heuristic, SearchSpec, _search, bipartite_lower_bound,
                      hausdorff_lower_bound)
from cged.graph import Graph, Point2D

GOLDEN = Path(__file__).parent / "data" / "ged_golden.json"
GRID_GOLDEN = Path(__file__).parent / "data" / "grid_golden.json"
CLASSIFY_GOLDEN = Path(__file__).parent / "data" / "classify_golden.json"
BOUND_GOLDEN = Path(__file__).parent / "data" / "bound_golden.json"
LARGE_GOLDEN = Path(__file__).parent / "data" / "ged_golden_large.json"

MODELS = [
    CostModel(),
    CostModel(0.9, 1.7, 0.4, 0.2),
    CostModel(2.0, 0.5, 1.5, 3.0),
]

SEARCHES = ("astar/zero", "astar/bipartite", "beam/1", "beam/3", "beam/10")


def run(name: str, g1: Graph, g2: Graph, cm: CostModel):
    kind, arg = name.split("/")
    if kind == "astar":
        return astar_ged(g1, g2, cm, Heuristic(arg))
    if kind == "bipartite-beam":
        # beam guided by the bound, which no public entry point runs yet
        return _search(g1, g2, cm, Heuristic.BIPARTITE, int(arg))
    return beam_ged(g1, g2, cm, int(arg))


def encode_graph(g: Graph) -> dict:
    def label(x):
        return [x.x, x.y] if isinstance(x, Point2D) else x

    return {"nodes": [[u, label(x)] for u, x in g.node_items()],
            "edges": [[u, v, w] for u, v, w in g.edges()]}


def decode_graph(d: dict) -> Graph:
    def label(x):
        return Point2D(*x) if isinstance(x, list) else x

    return Graph.from_parts(None, None, [(u, label(x)) for u, x in d["nodes"]],
                            [(u, v, w) for u, v, w in d["edges"]])


def _random_graph(rng: random.Random, scheme: str) -> Graph:
    g = Graph()
    for _ in range(rng.randint(0, 6)):
        symbolic = scheme == "symbolic" or (scheme == "mixed" and rng.random() < 0.5)
        if symbolic:
            g.add_node(rng.choice("CNOS"))
        else:
            g.add_node(Point2D(round(rng.uniform(0.0, 3.0), 3),
                               round(rng.uniform(0.0, 3.0), 3)))
    ids = g.nodes()
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if rng.random() < 0.45:
                r = rng.random()
                if r < 0.3:
                    label = float(rng.randint(1, 3))
                elif r < 0.5:
                    label = round(rng.uniform(0.1, 3.3), 3)
                else:
                    label = None
                g.add_edge(u, v, label)
    # sparse ids: positions in the search must not be confused with ids
    if g.order > 2 and rng.random() < 0.3:
        g.delete_node(rng.choice(g.nodes()))
    return g


def golden_inputs() -> list[tuple[Graph, Graph, CostModel]]:
    rng = random.Random(20220112)
    out = []
    for i in range(40):
        scheme = ("coordinate", "symbolic", "mixed", "symbolic")[i % 4]
        g1 = _random_graph(rng, scheme)
        g2 = _random_graph(rng, scheme)
        out.append((g1, g2, MODELS[i % len(MODELS)]))
    return out


LARGE_MODELS = MODELS + [CostModel(1.0, 1.0, 1.0, 0.0), CostModel(1.0, 0.0, 1.0, 1.0)]
LARGE_SEARCHES = ("astar/bipartite", "beam/10", "bipartite-beam/1", "bipartite-beam/3")


def _large_label(rng: random.Random, symbolic: bool):
    if symbolic:
        return rng.choice("CCCNOS")
    return Point2D(round(rng.uniform(0.0, 3.0), 3), round(rng.uniform(0.0, 3.0), 3))


def _large_edge(rng: random.Random, symbolic: bool):
    if symbolic:
        return float(rng.choice((1, 1, 2, 3)))
    return None if rng.random() < 0.7 else round(rng.uniform(0.1, 3.3), 3)


def _connected_graph(rng: random.Random, n: int, symbolic: bool) -> Graph:
    """A random spanning tree plus a few more edges."""
    g = Graph()
    for _ in range(n):
        g.add_node(_large_label(rng, symbolic))
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, _large_edge(rng, symbolic))
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < 0.15:
                g.add_edge(u, v, _large_edge(rng, symbolic))
    return g


def _edited_copy(rng: random.Random, g: Graph, symbolic: bool) -> Graph:
    """g with two nodes relabelled, two edges dropped or relabelled, maybe
    one node deleted, and its node ids shuffled."""
    nodes = list(g.node_items())
    edges = list(g.edges())
    for _ in range(2):
        k = rng.randrange(len(nodes))
        nodes[k] = (nodes[k][0], _large_label(rng, symbolic))
    for _ in range(2):
        k = rng.randrange(len(edges))
        if rng.random() < 0.5:
            edges.pop(k)
        else:
            u, v, _ = edges[k]
            edges[k] = (u, v, _large_edge(rng, symbolic))
    if rng.random() < 0.5:
        gone = rng.choice(nodes)[0]
        nodes = [(u, x) for u, x in nodes if u != gone]
        edges = [e for e in edges if gone not in e[:2]]
    ids = [u for u, _ in nodes]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    new = dict(zip(ids, shuffled))
    return Graph.from_parts(None, None, sorted((new[u], x) for u, x in nodes),
                            [(new[u], new[v], w) for u, v, w in edges])


def large_inputs() -> list[tuple[Graph, Graph, CostModel]]:
    rng = random.Random(20261019)
    out = []
    for i in range(24):
        symbolic = i % 2 == 0
        g1 = _connected_graph(rng, 8 + i % 3, symbolic)
        g2 = (_edited_copy(rng, g1, symbolic) if i % 4 < 2
              else _connected_graph(rng, rng.randint(8, 10), symbolic))
        out.append((g1, g2, LARGE_MODELS[i % len(LARGE_MODELS)]))
    return out


def large_outcome(name: str, g1: Graph, g2: Graph, cm: CostModel) -> dict:
    res = run(name, g1, g2, cm)
    return {"cost": res.cost.hex(), "expanded_nodes": res.expanded_nodes,
            "path": res.path.to_json_dict()}


def large_outcomes(g1: Graph, g2: Graph, cm: CostModel) -> dict[str, dict]:
    return {name: large_outcome(name, g1, g2, cm) for name in LARGE_SEARCHES}


HARNESS_SEARCHES = {"astar/bipartite": SearchSpec.astar(),
                    "astar/zero": SearchSpec.astar(Heuristic.ZERO),
                    "beam/3": SearchSpec.beam(3)}


def grid_records(search: SearchSpec) -> list[list]:
    """The timing grid on a fresh seeded corpus, one row per record."""
    corpus = synthesize_letter_like(23, 30, 6, 0.4)
    records = run_timing_benchmark(corpus, list(CentralityMeasure), list(TLevel), search,
                                   40, 5)
    return [[r.pair_id, r.measure.value, r.t_level.value, r.t_used_1, r.t_used_2,
             r.search, r.cost.hex(), r.expanded_nodes] for r in records]


def classify_outcomes(search: SearchSpec) -> dict[str, dict]:
    """``nn_classify`` on a fresh seeded split, per (measure, level)."""
    train, test = split_corpus(synthesize_letter_like(31, 40, 5, 0.5))
    out = {}
    for measure in CentralityMeasure:
        for level in TLevel:
            res = nn_classify(train, test, measure, level, search)
            out[f"{measure.value}/{level.value}"] = {
                "predictions": [list(p) for p in res.predictions],
                "searches": res.searches, "bounds": res.bounds,
                "hausdorff_bounds": res.hausdorff_bounds}
    return out


def bound_values() -> list[dict]:
    """Both lower bounds as ``float.hex``, per golden pair and argument order."""
    rows = []
    for g1, g2, cm in golden_inputs():
        rows.append({order: {"bipartite": bipartite_lower_bound(a, b, cm).hex(),
                             "hausdorff": hausdorff_lower_bound(a, b, cm).hex()}
                     for order, (a, b) in (("forward", (g1, g2)), ("backward", (g2, g1)))})
    return rows


def _record_table(path: Path, compute) -> None:
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table = {name: old[name] if name in old else compute(spec)
             for name, spec in HARNESS_SEARCHES.items()}
    # one record or (measure, level) entry a line
    parts = []
    for name, rows in table.items():
        items = rows.items() if isinstance(rows, dict) else enumerate(rows)
        lines = [json.dumps(v, separators=(",", ":")) if isinstance(rows, list)
                 else f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}"
                 for k, v in items]
        brackets = "[]" if isinstance(rows, list) else "{}"
        parts.append(f"{json.dumps(name)}:{brackets[0]}\n" + ",\n".join(lines)
                     + f"\n{brackets[1]}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


def record() -> None:
    _record_table(GRID_GOLDEN, grid_records)
    _record_table(CLASSIFY_GOLDEN, classify_outcomes)
    if not BOUND_GOLDEN.exists():
        BOUND_GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, separators=(",", ":"))
                                                    for r in bound_values()) + "\n]\n",
                                encoding="utf-8")
    old = (json.loads(LARGE_GOLDEN.read_text(encoding="utf-8")) if LARGE_GOLDEN.exists()
           else [{"results": {}}] * 24)
    if any(name not in row["results"] for row in old for name in LARGE_SEARCHES):
        rows = [{"g1": encode_graph(g1), "g2": encode_graph(g2),
                 "cost_model": [cm.x_node, cm.y_node, cm.x_edge, cm.y_edge],
                 "results": {name: row["results"][name] if name in row["results"]
                             else large_outcome(name, g1, g2, cm)
                             for name in LARGE_SEARCHES}}
                for (g1, g2, cm), row in zip(large_inputs(), old)]
        LARGE_GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, separators=(",", ":"))
                                                    for r in rows) + "\n]\n",
                                encoding="utf-8")
    recorded = _rows() if GOLDEN.exists() else [{"results": {}}] * 40
    rows = []
    for (g1, g2, cm), old in zip(golden_inputs(), recorded):
        results = {}
        for name in SEARCHES:
            if name in old["results"]:
                results[name] = old["results"][name]
                continue
            res = run(name, g1, g2, cm)
            results[name] = {"cost": res.cost, "expanded_nodes": res.expanded_nodes,
                             "path": res.path.to_json_dict()}
        rows.append({"g1": encode_graph(g1), "g2": encode_graph(g2),
                     "cost_model": [cm.x_node, cm.y_node, cm.x_edge, cm.y_edge],
                     "results": results})
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, separators=(",", ":")) for r in rows))
        fh.write("\n]\n")


def _rows():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(40))
def test_search_matches_golden_table(index):
    row = _rows()[index]
    g1, g2 = decode_graph(row["g1"]), decode_graph(row["g2"])
    cm = CostModel(*row["cost_model"])
    for name in SEARCHES:
        want = row["results"][name]
        res = run(name, g1, g2, cm)
        assert res.cost == want["cost"], name
        assert res.expanded_nodes == want["expanded_nodes"], name
        assert res.path.to_json_dict() == want["path"], name


@pytest.mark.parametrize("name", sorted(HARNESS_SEARCHES))
def test_grid_matches_golden_table(name):
    want = json.loads(GRID_GOLDEN.read_text(encoding="utf-8"))[name]
    assert grid_records(HARNESS_SEARCHES[name]) == want


@pytest.mark.parametrize("name", sorted(HARNESS_SEARCHES))
def test_classification_matches_golden_table(name):
    want = json.loads(CLASSIFY_GOLDEN.read_text(encoding="utf-8"))[name]
    assert classify_outcomes(HARNESS_SEARCHES[name]) == want


def test_large_searches_match_golden_table():
    rows = json.loads(LARGE_GOLDEN.read_text(encoding="utf-8"))
    assert len(rows) == 24
    for row in rows:
        g1, g2 = decode_graph(row["g1"]), decode_graph(row["g2"])
        assert large_outcomes(g1, g2, CostModel(*row["cost_model"])) == row["results"]


def test_bounds_match_golden_table():
    assert bound_values() == json.loads(BOUND_GOLDEN.read_text(encoding="utf-8"))


def test_bounds_take_none_for_the_default_cost_model():
    for g1, g2, _ in golden_inputs():
        for bound in (bipartite_lower_bound, hausdorff_lower_bound):
            assert bound(g1, g2).hex() == bound(g1, g2, None).hex() == bound(
                g1, g2, CostModel()).hex()


def compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 and later compute it: floats are added with
    Neumaier's compensation, ints as before, and any other item flushes the
    compensation and is added plainly."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        elif type(total) is float and type(x) in (int, bool):
            total += float(x)
        else:
            if type(total) is float and c and math.isfinite(c):
                total += c
            c = 0.0
            total = total + x
    if type(total) is float and c and math.isfinite(c):
        total += c
    return total


def test_compensated_sum_emulates_a_rounding_difference():
    # 1.0 + 1e100 + 1.0 - 1e100 is 0.0 left to right and 2.0 compensated
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([]) == 0


def test_tables_do_not_depend_on_how_sum_rounds(monkeypatch):
    """Costs and bounds are summed left to right wherever they are summed, so
    every table still matches when each cged module's ``sum()`` is 3.12's
    compensated one (Python 3.11's, which the tables were recorded with,
    adds left to right)."""
    for info in pkgutil.iter_modules(cged.__path__):
        monkeypatch.setattr(importlib.import_module(f"cged.{info.name}"), "sum",
                            compensated_sum, raising=False)
    # no golden pair tells the sums of the bipartite bound's matched cells
    # apart, and this one does: its cells 2**53, 1 and 1 in row order add up
    # to 2**53 left to right and to 2**53 + 2 compensated
    big = float(2**53)
    g1 = Graph.from_parts(None, None, [(0, Point2D(0.0, 0.0)), (1, Point2D(0.0, 11.0)),
                                       (2, Point2D(0.0, -11.0))], [])
    g2 = Graph.from_parts(None, None, [(0, Point2D(big, 0.0)), (1, Point2D(0.0, 10.0)),
                                       (2, Point2D(0.0, -10.0))], [])
    assert bipartite_lower_bound(g1, g2, CostModel(x_node=big)) == big
    assert bound_values() == json.loads(BOUND_GOLDEN.read_text(encoding="utf-8"))
    for index in range(40):
        test_search_matches_golden_table(index)
    test_large_searches_match_golden_table()
    for name in HARNESS_SEARCHES:
        test_grid_matches_golden_table(name)


if __name__ == "__main__":
    record()
