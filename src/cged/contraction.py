"""Node contraction: remove low-importance nodes without breaking the graph apart.

Three flavors are provided:

* :func:`t_centrality_node_contraction` removes up to ``t`` nodes in
  ascending order of one centrality ranking of the input graph;
* :func:`k_degree_node_contraction` removes the nodes whose degree equals
  ``k`` in the input graph;
* :func:`k_star_node_contraction` chains degree passes for 1..k.

All three walk over the input graph's cached
:class:`~cged.graph.GraphArrays` with one bitmask of the nodes still
present, and delete a candidate only when that leaves the number of
connected components unchanged: cut vertices are skipped (removing one
splits a component) and so are isolated nodes, the last node of the graph
included (removing one drops a component). A cut vertex of the live nodes
is decided by :func:`~cged.graph.is_cut_vertex`, the rule
:meth:`~cged.graph.Graph.articulation_points` applies too, with one flood
fill, so no graph is copied or modified during the walk. The contracted
graph is built once, at the end, and keeps the surviving nodes' original
ids; a report of what happened comes with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .centrality import CentralityMeasure, compute_centrality, rank_ascending
from .graph import Graph, GraphArrays, _check_int, _check_type, is_cut_vertex


@dataclass
class ContractionReport:
    """What one contraction run did.

    ``removed`` lists (node id, score at selection time) in deletion order.
    ``skipped_cut_vertices`` lists candidates that were passed over to keep
    the component count intact: cut vertices, plus the rare isolated node.
    A last remaining node is logged there by the degree-based flavors but
    not by :func:`t_centrality_node_contraction`, whose walk stops at n - 1
    deletions. For the degree-based flavors ``t_requested`` is the number
    of candidates considered.
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


def _delete_walk(form: GraphArrays, alive: int, candidates: Iterable[tuple[int, float]],
                 budget: int, report: ContractionReport) -> int:
    """Delete each (id, score) candidate that has a live neighbour and is not
    a cut vertex of the live nodes, logging the others as skipped, until
    ``budget`` deletions; ``alive`` has a bit set for each live position, and
    the walk returns it with the deleted positions cleared."""
    masks, pos = form.masks, form.pos
    deleted = 0
    for u, score in candidates:
        if deleted >= budget:
            break
        p = pos[u]
        if masks[p] & alive and not is_cut_vertex(masks, alive, p):
            alive &= ~(1 << p)
            deleted += 1
            report.removed.append((u, score))
        else:
            report.skipped_cut_vertices.append(u)
    return alive


def _contracted(g: Graph, report: ContractionReport) -> tuple[Graph, ContractionReport]:
    """g minus the nodes the report removed, and the report with its result
    order set."""
    report.result_order = g.order - len(report.removed)
    return g.without(report.removed_ids), report


def t_centrality_node_contraction(
    g: Graph, t: int, measure: CentralityMeasure
) -> tuple[Graph, ContractionReport]:
    """Remove up to t nodes in :func:`rank_ascending` order.

    The ranking is computed once, on the input graph. Candidates are walked
    in that order and only successful deletions count against t; a
    candidate whose deletion would change the component count is skipped.
    At most n - 1 nodes can go (only a connected graph shrinks to one
    node), so the walk stops there and never logs a last remaining node.
    A ``t`` or ``measure`` that its rule rejects raises ``ValueError``
    before any work.
    """
    _check_int(t, "t", 0)
    _check_type(measure, CentralityMeasure, "measure")
    report = ContractionReport(measure=measure, t_requested=t)
    if t > 0 and g.order > 0:
        scores = compute_centrality(g, measure)
        candidates = ((u, scores.scores[u]) for u in rank_ascending(scores))
        _delete_walk(g.arrays(), (1 << g.order) - 1, candidates, min(t, g.order - 1), report)
    return _contracted(g, report)


def _degree_passes(g: Graph, degrees: Iterable[int]) -> ContractionReport:
    """The report of one degree pass per k in ``degrees``, in turn, on one
    walk over g; no graph is built, and the result order is left unset.

    A pass's candidates are the live nodes whose live degree equals k when
    the pass starts, visited in ascending id order, each scored k; they are
    the pass's own budget, so every one of them is decided.
    """
    form = g.arrays()
    masks = form.masks
    alive = (1 << len(form.ids)) - 1
    report = ContractionReport(measure=CentralityMeasure.DEGREE, t_requested=0)
    for k in degrees:
        candidates = [(u, float(k)) for p, u in enumerate(form.ids)
                      if alive >> p & 1 and (masks[p] & alive).bit_count() == k]
        report.t_requested += len(candidates)
        alive = _delete_walk(form, alive, candidates, len(candidates), report)
    return report


def k_degree_node_contraction(g: Graph, k: int) -> tuple[Graph, ContractionReport]:
    """Remove the nodes whose degree equals k in the input graph.

    Candidates are fixed by their input degree and visited in ascending id
    order; each is deleted iff the deletion preserves the component count
    of the graph as it stands at that moment.
    """
    _check_int(k, "k", 1)
    return _contracted(g, _degree_passes(g, [k]))


def k_star_node_contraction(g: Graph, k: int) -> tuple[Graph, ContractionReport]:
    """Degree-i contraction for i = 1..k in turn, each pass on what the
    passes before it left; the report lists every pass's candidates,
    removals and skips in pass order."""
    _check_int(k, "k", 1)
    # no live degree reaches the order, so the passes past it find nothing
    return _contracted(g, _degree_passes(g, range(1, min(k, g.order) + 1)))
