"""Node contraction: remove low-importance nodes without breaking the graph apart.

Three flavors are provided:

* :func:`t_centrality_node_contraction` removes up to ``t`` nodes in
  ascending order of one centrality ranking of the input graph;
* :func:`k_degree_node_contraction` removes the nodes whose degree equals
  ``k`` in the input graph;
* :func:`k_star_node_contraction` chains degree passes for 1..k.

A node is only ever deleted when the deletion leaves the number of
connected components unchanged: cut vertices are skipped (removing one
splits a component) and so are isolated nodes and the last node of the
graph (removing those drops a component). The input graph is never
modified; contraction returns a fresh graph that keeps the surviving
nodes' original ids, plus a report of what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .centrality import CentralityMeasure, compute_centrality, rank_ascending
from .graph import Graph


@dataclass
class ContractionReport:
    """What one contraction run did.

    ``removed`` lists (node id, score at selection time) in deletion order.
    ``skipped_cut_vertices`` lists candidates that were passed over to keep
    the component count intact (cut vertices, plus the rare isolated or
    last-remaining node). For the degree-based flavors ``t_requested`` is
    the number of candidates considered.
    """

    measure: CentralityMeasure
    t_requested: int
    removed: list[tuple[int, float]] = field(default_factory=list)
    skipped_cut_vertices: list[int] = field(default_factory=list)
    result_order: int = 0

    @property
    def removed_ids(self) -> list[int]:
        return [u for u, _ in self.removed]

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure.value,
            "t_requested": self.t_requested,
            "removed": [{"node": u, "score": s} for u, s in self.removed],
            "skipped_cut_vertices": list(self.skipped_cut_vertices),
            "result_order": self.result_order,
        }


def _deletable(g: Graph, u: int, articulation: set[int]) -> bool:
    # deletion preserves the component count iff u is neither isolated
    # (its singleton component would vanish) nor an articulation point
    return g.degree(u) > 0 and u not in articulation


def t_centrality_node_contraction(
    g: Graph, t: int, measure: CentralityMeasure
) -> tuple[Graph, ContractionReport]:
    """Remove up to t nodes in :func:`rank_ascending` order.

    The ranking is computed once, on the input graph. Candidates are walked
    in that order and only successful deletions count against t; a
    candidate whose deletion would change the component count is skipped.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    report = ContractionReport(measure=measure, t_requested=t)
    work = g.copy()
    if t == 0 or work.order == 0:
        report.result_order = work.order
        return work, report

    scores = compute_centrality(g, measure)
    articulation = work.articulation_points()
    for u in rank_ascending(scores):
        if len(report.removed) >= t or work.order <= 1:
            break
        if _deletable(work, u, articulation):
            work.delete_node(u)
            report.removed.append((u, scores.scores[u]))
            articulation = work.articulation_points()
        else:
            report.skipped_cut_vertices.append(u)

    report.result_order = work.order
    return work, report


def k_degree_node_contraction(g: Graph, k: int) -> tuple[Graph, ContractionReport]:
    """Remove the nodes whose degree equals k in the input graph.

    Candidates are fixed by their input degree and visited in ascending id
    order; each is deleted iff the deletion preserves the component count
    of the graph as it stands at that moment.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = [u for u in g.nodes() if g.degree(u) == k]
    report = ContractionReport(measure=CentralityMeasure.DEGREE, t_requested=len(candidates))
    work = g.copy()
    articulation = work.articulation_points()
    for u in candidates:
        if work.order <= 1:
            report.skipped_cut_vertices.append(u)
            continue
        if _deletable(work, u, articulation):
            work.delete_node(u)
            report.removed.append((u, float(k)))
            articulation = work.articulation_points()
        else:
            report.skipped_cut_vertices.append(u)
    report.result_order = work.order
    return work, report


def k_star_node_contraction(g: Graph, k: int) -> tuple[Graph, ContractionReport]:
    """Apply degree-i contraction sequentially for i = 1..k; reports concatenated."""
    if k < 1:
        raise ValueError("k must be >= 1")
    work = g
    merged = ContractionReport(measure=CentralityMeasure.DEGREE, t_requested=0)
    for i in range(1, k + 1):
        work, rep = k_degree_node_contraction(work, i)
        merged.t_requested += rep.t_requested
        merged.removed.extend((u, float(i)) for u, _ in rep.removed)
        merged.skipped_cut_vertices.extend(rep.skipped_cut_vertices)
    merged.result_order = work.order
    return work, merged
