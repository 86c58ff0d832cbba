"""Graph edit distance by best-first search over partial node mappings.

This module says which search runs and what it returns; how a search is
laid out and run (the open-list entry, the pair view, the expansion step
and the settling of deferred bounds) is described once, in
:mod:`cged.kernels`, which runs it. The exact solver (:func:`astar_ged`) is
guided by default by the bipartite bound of what is left to place
(:attr:`Heuristic.BIPARTITE`; :func:`bipartite_lower_bound` is the same
bound at the empty prefix), and every heuristic gives the same cost. The
beam variant (:func:`beam_ged`) runs without a heuristic and keeps at most
``w`` open entries, trading optimality for speed while never returning
less than the true distance. Ties are broken by a total order, so costs,
edit paths and expansion counts are reproducible.

A :class:`SearchSpec` names one of the two: ``SearchSpec(None, heuristic)``
is A* and ``SearchSpec(w)`` is beam of width w. Every entry point here
takes ``None`` or a :class:`CostModel` for its cost model and checks it,
and its heuristic, width, measure or search, with :mod:`cged.graph`'s
rules before any work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import hypot
from typing import Optional, Tuple

from . import kernels
from .centrality import CentralityMeasure
from .contraction import ContractionReport, t_centrality_node_contraction
from .costs import CostModel, EditPath, _cost_model
from .graph import Graph, _check_int, _check_type, _shown
from .kernels import Heuristic


@dataclass(frozen=True)
class SearchSpec:
    """Which solver to run: exact best-first A* for ``w=None``, or beam of
    width ``w``, which runs without a heuristic. Any ``w`` but ``None`` is a
    width, and the count rule takes only an int >= 1.

    An unset heuristic means ``BIPARTITE`` for A* and ``ZERO`` for beam.
    """

    w: Optional[int] = None
    heuristic: Optional[Heuristic] = None

    def __post_init__(self) -> None:
        if self.heuristic is None:
            default = Heuristic.BIPARTITE if self.w is None else Heuristic.ZERO
            object.__setattr__(self, "heuristic", default)
        _check_type(self.heuristic, Heuristic, "heuristic")
        if self.w is not None:
            _check_int(self.w, "beam width", 1)
            if self.heuristic is not Heuristic.ZERO:
                raise ValueError(f"heuristic {_shown(self.heuristic, str)} applies only to astar; "
                                 "beam search runs without one")

    @classmethod
    def astar(cls, heuristic: Heuristic = Heuristic.BIPARTITE) -> "SearchSpec":
        return cls(None, heuristic)

    @classmethod
    def beam(cls, w: int) -> "SearchSpec":
        return cls(w)

    def describe(self) -> str:
        """``astar(bipartite)``, ``astar(zero)`` or ``beam(w=W)``."""
        return f"astar({self.heuristic})" if self.w is None else f"beam(w={_shown(self.w, str)})"


@dataclass
class GedResult:
    """Distance plus the edit path that realizes it and search statistics."""

    cost: float
    path: EditPath
    expanded_nodes: int
    elapsed: float
    contraction_reports: Optional[Tuple[ContractionReport, ContractionReport]] = None

    def to_json_dict(self) -> dict:
        reports = None
        if self.contraction_reports is not None:
            reports = [r.to_json_dict() for r in self.contraction_reports]
        return {
            "cost": self.cost,
            "path": self.path.to_json_dict(),
            "expanded_nodes": self.expanded_nodes,
            "elapsed_seconds": self.elapsed,
            "contraction_reports": reports,
        }


def _search(g1: Graph, g2: Graph, cm: CostModel, heuristic: Heuristic,
            width: Optional[int]) -> GedResult:
    t0 = time.perf_counter()
    path, expanded = kernels.search(g1, g2, cm, heuristic, width)
    return GedResult(cost=path.total_cost, path=path, expanded_nodes=expanded,
                     elapsed=time.perf_counter() - t0)


def astar_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None,
              heuristic: Heuristic = Heuristic.BIPARTITE) -> GedResult:
    """Exact edit distance; returns the cheapest complete edit path.

    Every heuristic gives the same cost; ``heuristic`` changes only how many
    prefixes are expanded and, among equally cheap edit paths, which one is
    returned. A ``heuristic`` that is not a :class:`Heuristic` member fails,
    and so does a ``cm`` that is neither ``None`` (the default model) nor a
    :class:`CostModel`.
    """
    _check_type(heuristic, Heuristic, "heuristic")
    return _search(g1, g2, _cost_model(cm), heuristic, width=None)


def beam_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None,
             w: int = 10) -> GedResult:
    """Width-limited search; cost is an upper bound on the exact distance."""
    _check_int(w, "beam width", 1)
    return _search(g1, g2, _cost_model(cm), Heuristic.ZERO, width=w)


def run_search(g1: Graph, g2: Graph, cm: Optional[CostModel], search: SearchSpec) -> GedResult:
    """The search ``search`` selects, on the pair: a ``search`` that is not
    a :class:`SearchSpec` raises ``ValueError`` before any work."""
    _check_type(search, SearchSpec, "search")
    # both solvers are looked up in this module per call, so either can be
    # wrapped (e.g. traced) at runtime
    if search.w is None:
        return astar_ged(g1, g2, cm, search.heuristic)
    return beam_ged(g1, g2, cm, search.w)


def t_centrality_ged(
    g1: Graph,
    g2: Graph,
    t: int,
    measure: CentralityMeasure,
    cm: Optional[CostModel] = None,
    search: SearchSpec = SearchSpec.astar(),
) -> GedResult:
    """Contract the t least-central deletable nodes of each graph, then search.

    Contracted nodes and their incident edges are simply absent from the
    searched pair, so they contribute nothing to the returned cost; the two
    contraction reports ride along in the result. A ``t``, ``measure``,
    ``cm`` or ``search`` that its rule rejects raises ``ValueError`` before
    any work.
    """
    _check_type(search, SearchSpec, "search")
    cm = _cost_model(cm)
    t0 = time.perf_counter()
    h1, rep1 = t_centrality_node_contraction(g1, t, measure)
    h2, rep2 = t_centrality_node_contraction(g2, t, measure)
    result = run_search(h1, h2, cm, search)
    result.contraction_reports = (rep1, rep2)
    result.elapsed = time.perf_counter() - t0
    return result


def bipartite_lower_bound(g1: Graph, g2: Graph, cm: Optional[CostModel] = None) -> float:
    """A proven lower bound on the edit distance, from one node assignment.

    The bipartite bound of Riesen, Fankhauser & Bunke (MLG 2007), which
    :attr:`Heuristic.BIPARTITE` prices for every prefix, here at the empty
    one: mapping node i onto node j costs ``y_node * d(l_i, l_j) + x_edge *
    |deg_i - deg_j| / 2``, and deleting or inserting a node costs ``x_node +
    x_edge * deg / 2``. Any edit path maps every node once: a deleted or
    inserted node takes all its edges with it, the star of a node mapped
    onto another needs at least the difference of their degrees in edge
    deletions and insertions, and each edge operation touches only two
    stars, so half its cost per star never overcounts, whatever the labels
    and cost model. The ``y_node * d(l_i, l_j)`` cells are the search's
    own empty-prefix rows (:func:`kernels._node_costs`), the assignment is
    solved on the reduced n1 x n2 matrix of :func:`kernels.assignment`, and
    its matching is priced on these costs, so a graph against a copy of
    itself gives exactly 0.0, and two empty graphs give 0.0. ``cm`` is
    ``None`` (the default model) or a :class:`CostModel`.
    """
    cm = _cost_model(cm)
    a1, a2 = g1.arrays(), g2.arrays()
    sub = kernels._node_costs(a1, a2, cm.y_node)
    half = 0.5 * cm.x_edge
    deg1, deg2 = a1.deg, a2.deg
    matched = kernels.assignment(sub, deg1, deg2, cm.x_node, cm.x_edge)
    mapped1 = {i for i, _ in matched}
    mapped2 = {j for _, j in matched}
    # each part left to right: from Python 3.12, sum() of floats is
    # compensated and would move the bound's last bit
    paired = deleted = inserted = 0.0
    for i, j in matched:
        paired += sub[i][j] + half * abs(deg1[i] - deg2[j])
    for i, d in enumerate(deg1):
        if i not in mapped1:
            deleted += cm.x_node + half * d
    for j, d in enumerate(deg2):
        if j not in mapped2:
            inserted += cm.x_node + half * d
    return paired + deleted + inserted


def hausdorff_lower_bound(g1: Graph, g2: Graph, cm: Optional[CostModel] = None) -> float:
    """A lower bound on the edit distance that needs no assignment, and never
    exceeds :func:`bipartite_lower_bound`.

    The Hausdorff edit distance of Fischer et al. (Pattern Recognition
    2015) on the bipartite bound's costs: cell (i, j) costs ``c_ij = y_node
    * d(l_i, l_j) + x_edge * |deg_i - deg_j| / 2``, and each node of either
    graph pays the smaller of its deletion or insertion, ``x_node + x_edge *
    deg / 2``, and half its cheapest cell. Any assignment pays each matched
    cell in full, which is its two halves, and each unmatched node's
    deletion or insertion, so the sum is at most the bipartite bound. A
    graph against a copy of itself gives exactly 0.0, two empty graphs give
    0.0, and an empty graph against g gives ``x_node * n + x_edge * m`` (up
    to rounding). The labels and degrees come from each graph's array form,
    so a later call on the same graph only prices cells. ``cm`` is ``None``
    (the default model) or a :class:`CostModel`.
    """
    cm = _cost_model(cm)
    a1, a2 = g1.arrays(), g2.arrays()
    labels2, deg2 = a2.labels, a2.deg
    y_node, half, x_node = cm.y_node, 0.5 * cm.x_edge, cm.x_node
    # twice each node's share, halved once at the end (halving is exact)
    total = 0.0
    best2 = [2.0 * (x_node + half * d) for d in deg2]
    for a, da in zip(a1.labels, a1.deg):
        low = 2.0 * (x_node + half * da)
        point = type(a) is tuple
        for j, (b, db) in enumerate(zip(labels2, deg2)):
            # node_label_distance on the stored forms: a symbol never equals a pair
            if point and type(b) is tuple:
                d = hypot(a[0] - b[0], a[1] - b[1])
            else:
                d = 0.0 if a == b else 1.0
            c = y_node * d + half * abs(da - db)
            if c < low:
                low = c
            if c < best2[j]:
                best2[j] = c
        total += low
    # left to right, as for the bipartite bound
    columns = 0.0
    for c in best2:
        columns += c
    return 0.5 * (total + columns)
