"""Betweenness scores: a frozen table and a networkx cross-check.

``data/betweenness_golden.json`` holds 240 seeded graphs with the exact
scores :func:`cged.betweenness_centrality` gave when the table was
recorded: random graphs of up to 12 nodes (many disconnected, some empty),
random connected graphs, graphs with sparse ids left by node deletions,
and synthetic letters. The table was recorded with the CSR kernel that the
plain-Python loop replaced, so any change to BFS order or to the order in
which ``sigma`` and ``delta`` are accumulated shows up here as a mismatch.

Regenerate (only when the scores are meant to change) with::

    PYTHONPATH=src python tests/test_betweenness.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import networkx as nx
import pytest

from cged.centrality import betweenness_centrality
from cged.graph import Graph
from cged.dataset import synthesize_letter_like
from helpers import random_connected_graph, random_graph

GOLDEN = Path(__file__).parent / "data" / "betweenness_golden.json"


def golden_inputs() -> list[Graph]:
    rng = random.Random(20221018)
    graphs = [random_graph(rng, n_max=12, edge_p=rng.uniform(0.05, 0.6))
              for _ in range(120)]
    graphs += [random_connected_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 0.4))
               for _ in range(30)]
    for _ in range(40):
        g = random_graph(rng, n_min=3, n_max=12, edge_p=rng.uniform(0.15, 0.6))
        for _ in range(rng.randint(1, 3)):
            g.delete_node(rng.choice(g.nodes()))
        graphs.append(g)
    graphs += list(synthesize_letter_like(11, 50, 10, 0.3))
    return graphs


def encode(g: Graph) -> dict:
    return {"nodes": g.nodes(), "edges": [[u, v] for u, v, _ in g.edges()]}


def decode(d: dict) -> Graph:
    return Graph.from_parts(None, None, [(u, "C") for u in d["nodes"]],
                            [(u, v, None) for u, v in d["edges"]])


def record() -> None:
    rows = []
    for g in golden_inputs():
        scores = betweenness_centrality(g).scores
        rows.append({**encode(g), "scores": [scores[u] for u in g.nodes()]})
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, separators=(",", ":")) for r in rows))
        fh.write("\n]\n")


@pytest.fixture(scope="module")
def rows():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_table_covers_the_inputs(rows):
    assert len(rows) == 240
    assert [{"nodes": r["nodes"], "edges": r["edges"]} for r in rows] == \
        [encode(g) for g in golden_inputs()]


def test_scores_match_golden_table_exactly(rows):
    for row in rows:
        got = betweenness_centrality(decode(row)).scores
        assert [got[u] for u in row["nodes"]] == row["scores"], row


def test_scores_match_networkx(rows):
    # networkx's unnormalized undirected betweenness halves its ordered-pair
    # sums, so it too counts each unordered pair once
    for row in rows:
        g = nx.Graph()
        g.add_nodes_from(row["nodes"])
        g.add_edges_from(row["edges"])
        want = nx.betweenness_centrality(g, normalized=False)
        got = betweenness_centrality(decode(row)).scores
        for u in row["nodes"]:
            assert got[u] == pytest.approx(want[u], abs=1e-9), (row, u)


if __name__ == "__main__":
    record()
