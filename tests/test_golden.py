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

Recording keeps every entry already in the table, records the searches it
lacks and drops those no longer listed::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cged import CostModel, astar_ged, beam_ged
from cged.ged import Heuristic
from cged.graph import Graph, Point2D

GOLDEN = Path(__file__).parent / "data" / "ged_golden.json"

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


def record() -> None:
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


if __name__ == "__main__":
    record()
