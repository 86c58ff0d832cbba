"""Graph edit distance by best-first search over partial node mappings.

The search processes the first graph's nodes in ascending id order. Each
open-list entry is a prefix mapping: every processed node is either mapped
onto a distinct node of the second graph or deleted. Expanding an entry
places the next node every possible way; edge operations are charged as
soon as both endpoints are placed, so the accumulated cost of a prefix is
exact. Once all source nodes are placed, the leftover target nodes and
their edges are inserted in one step, making the entry complete.

Entries are ordered by (accumulated + heuristic cost, deeper first,
mapping lexicographic), which makes costs, edit paths, and expansion
counts reproducible. The exact solver pops entries until a complete one
surfaces, guided by default by the bipartite bound of what is left to
place (:attr:`Heuristic.BIPARTITE`; :func:`bipartite_lower_bound` is the
same bound at the empty prefix). The exact solver keeps its open list as a
heap. Under the bound, the expansion step leaves a child's assignment
unsolved where no certificate answers it, keys the child by a floor of
its ``f`` and marks it in the entry's seventh element (see
:func:`kernels.extend_costs`). The search settles such an entry when it
reaches the top of the heap, through :func:`kernels.settle`, and pushes it
back keyed by its ``f``; only settled entries are expanded or returned, so
they pop in the order of solving every assignment at once. The beam
variant runs without a heuristic and keeps its open list as an ascending
list of at most ``w`` entries: it pops the first, inserts each child in
order and drops whatever falls past ``w``, trading optimality for speed
while never returning less than the true distance.
A beam wider than its open list ever grows prunes nothing and costs more
per step than the heap; that search is ``astar_ged(..., Heuristic.ZERO)``.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush, heappushpop
from math import hypot
from typing import Optional, Tuple

from . import kernels
from .centrality import CentralityMeasure
from .contraction import ContractionReport, _check_int, t_centrality_node_contraction
from .costs import DEFAULT_COST_MODEL, CostModel, EditOperation, EditPath, OpKind
from .graph import Graph, GraphArrays


# the operation kinds, read once: a member lookup on the enum class costs
# more than building the operation
_NODE_SUB, _NODE_DEL, _NODE_INS = OpKind.NODE_SUB, OpKind.NODE_DEL, OpKind.NODE_INS
_EDGE_SUB, _EDGE_DEL, _EDGE_INS = OpKind.EDGE_SUB, OpKind.EDGE_DEL, OpKind.EDGE_INS


class Heuristic(Enum):
    """What exact A* adds to a prefix's accumulated cost: ``BIPARTITE`` (the
    default) the assignment bound of what is left to place, ``ZERO`` nothing
    (the unguided reference). Beam search always runs with ``ZERO``."""

    ZERO = "zero"
    BIPARTITE = "bipartite"

    def __str__(self) -> str:
        return self.value


def _check_heuristic(heuristic) -> None:
    """A heuristic is a :class:`Heuristic` member: the search compares it by
    identity, so a string or None would otherwise run unguided."""
    if not isinstance(heuristic, Heuristic):
        raise ValueError(f"heuristic must be a Heuristic member, got {heuristic!r}")


@dataclass(frozen=True)
class SearchSpec:
    """Which solver to run: exact best-first (``astar``, with a heuristic and
    no width) or width-limited ``beam`` (an int width w >= 1 and no
    heuristic).

    An unset heuristic means ``BIPARTITE`` for astar and ``ZERO`` for beam.
    """

    kind: str
    w: int = 0
    heuristic: Optional[Heuristic] = None

    def __post_init__(self) -> None:
        if self.kind not in ("astar", "beam"):
            raise ValueError(f"search kind must be 'astar' or 'beam', got {self.kind!r}")
        if self.heuristic is None:
            default = Heuristic.BIPARTITE if self.kind == "astar" else Heuristic.ZERO
            object.__setattr__(self, "heuristic", default)
        _check_heuristic(self.heuristic)
        if self.kind == "astar" and self.w:
            raise ValueError(f"astar search takes no width, got {self.w}")
        if self.kind == "beam":
            _check_int(self.w, "beam width", 1)
        if self.kind == "beam" and self.heuristic is not Heuristic.ZERO:
            raise ValueError(f"heuristic {self.heuristic} applies only to astar; "
                             "beam search runs without one")

    @classmethod
    def astar(cls, heuristic: Heuristic = Heuristic.BIPARTITE) -> "SearchSpec":
        return cls("astar", 0, heuristic)

    @classmethod
    def beam(cls, w: int) -> "SearchSpec":
        return cls("beam", w)

    def describe(self) -> str:
        """``astar(bipartite)``, ``astar(zero)`` or ``beam(w=W)``."""
        return f"astar({self.heuristic})" if self.kind == "astar" else f"beam(w={self.w})"


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


def _node_costs(a1: GraphArrays, a2: GraphArrays, y_node: float) -> tuple:
    """The label-cost table of two graph forms: row i, column j holds
    ``y_node`` times the label distance of source position i and target
    position j (:func:`~cged.costs.node_label_distance` on the stored
    labels)."""
    labels2 = a2.labels
    # a symbol never equals a pair
    return tuple(
        [y_node * (hypot(a[0] - b[0], a[1] - b[1]) if type(b) is tuple else 1.0)
         for b in labels2] if type(a) is tuple
        else [y_node * (0.0 if a == b else 1.0) for b in labels2]
        for a in a1.labels)


class _PairView:
    """One graph pair as :func:`kernels.extend_costs` and :func:`_reconstruct`
    read it: both graphs' :class:`~cged.graph.GraphArrays` (``a1``, ``a2``),
    their orders ``n1`` and ``n2``, ``node_cost`` (:func:`_node_costs` of
    both forms), ``depth_terms`` and ``kept``.

    ``depth_terms`` is None unless the search uses
    :attr:`Heuristic.BIPARTITE`. With the first d source positions placed,
    that bound is the cost of deleting every unplaced source and inserting
    every unused target, each with its unpaid edges (in full towards a
    placed node or used target, half at each end otherwise), plus
    :func:`kernels.assignment` over one row per unplaced source. Row i,
    column j holds ``node_cost[i][j]`` plus ``edge substitution - 2 *
    x_edge`` per placed neighbour of i mapped onto a neighbour of j, whose
    edge pair is substituted rather than deleted and inserted; at the empty
    prefix the rows are ``node_cost`` itself, the cells of
    :func:`bipartite_lower_bound`.

    ``depth_terms[d]`` holds what the bound needs of the sources after
    source d, which depends on d alone, for every d below the last: the
    ``(row index, edge kind, edge value)`` of each of them linked to d, their
    degrees towards each other, their row terms ``x_edge * degree + 2 *
    x_node``, and the cost of deleting them all with every edge that reaches
    them. It is built once per search. ``kept`` is the list of cell rows
    that the last expansion left unsolved (see :func:`kernels.extend_costs`).
    """

    __slots__ = ("a1", "a2", "n1", "n2", "node_cost", "depth_terms", "kept")

    def __init__(self, g1: Graph, g2: Graph, cm: CostModel, heuristic: Heuristic):
        a1, a2 = self.a1, self.a2 = g1.arrays(), g2.arrays()
        n1 = self.n1 = len(a1.ids)
        self.n2 = len(a2.ids)
        self.node_cost = _node_costs(a1, a2, cm.y_node)
        self.depth_terms = None
        self.kept = []
        if heuristic is not Heuristic.BIPARTITE:
            return
        x_node, x_edge = cm.x_node, cm.x_edge
        two_x = x_node + x_node
        masks = a1.masks
        ends = sum(m.bit_count() for m in masks)  # less d's and those before: the rest's
        self.depth_terms = terms = []
        for d in range(n1 - 1):
            kind_row, val_row = a1.kind[d], a1.val[d]
            ends -= masks[d].bit_count()
            # the rest's degrees towards each other count each edge among
            # them twice; deleting the rest pays every edge that reaches it
            degs = [(masks[i] >> d + 1).bit_count() for i in range(d + 1, n1)]
            terms.append(([(i - d - 1, kind_row[i], val_row[i]) for i in a1.adj[d] if i > d],
                          degs, [x_edge * dr + two_x for dr in degs],
                          x_node * (n1 - d - 1) + x_edge * (ends - sum(degs) // 2)))

    def root(self) -> tuple:
        """The open-list entry of the empty prefix (complete when g1 is
        empty), which carries the bound's empty-prefix rows under the
        bound."""
        return (0.0, 0, (), 0.0, 0, None if self.depth_terms is None else self.node_cost, None)


def _search(g1: Graph, g2: Graph, cm: CostModel, heuristic: Heuristic,
            width: Optional[int]) -> GedResult:
    t0 = time.perf_counter()
    view = _PairView(g1, g2, cm, heuristic)
    n1 = view.n1
    # entry: (f, -depth, mapping, g, used, bound rows, unsolved); the first
    # three form the total order, and the last two are None without the
    # bound. A* keeps its open list as a heap; beam keeps an ascending list
    # of at most ``width`` entries. Every entry short of complete has a
    # child (its deletion), so the list never runs dry.
    frontier = [view.root()]
    children: list = []
    expanded = 0
    while True:
        if width is None:
            entry = heappop(frontier)
            # an entry whose bound still waits on the solver is keyed below
            # its f: settled, it is expanded only if it still comes first
            while entry[6] is not None:
                entry = heappushpop(frontier, kernels.settle(view, cm, entry))
        else:
            entry = frontier.pop(0)
        if -entry[1] == n1:
            path = _reconstruct(view, cm, entry[2])
            elapsed = time.perf_counter() - t0
            return GedResult(cost=path.total_cost, path=path,
                             expanded_nodes=expanded, elapsed=elapsed)
        expanded += 1
        # looked up per call, so the step can be wrapped (e.g. traced) at runtime
        kernels.extend_costs(view, cm, children, entry)
        if width is None:
            for child in children:
                heappush(frontier, child)
        else:
            # entries are unique and totally ordered, so this keeps exactly
            # the ``width`` best of the old beam and the new children; a beam
            # orders by exact keys only, so each child is settled first
            for child in children:
                if child[6] is not None:
                    child = kernels.settle(view, cm, child)
                insort(frontier, child)
            del frontier[width:]
        children.clear()


def _reconstruct(view: _PairView, cm: CostModel, mapping: tuple[int, ...]) -> EditPath:
    """Expand a complete position mapping into an ordered operation list.

    Positions ascend with ids, so the operations come in ascending id order,
    and each cost is the float :meth:`CostModel.node_sub_cost` or
    :meth:`CostModel.edge_sub_cost` gives for the same labels.
    """
    a1, a2 = view.a1, view.a2
    ids1, ids2 = a1.ids, a2.ids
    kind1, val1, kind2, val2 = a1.kind, a1.val, a2.kind, a2.val
    node_cost = view.node_cost
    x_node, x_edge, y_edge = cm.x_node, cm.x_edge, cm.y_edge
    eps = kernels.EPS_SLOT
    ops: list[EditOperation] = []
    for i, slot in enumerate(mapping):
        if slot == eps:
            ops.append(EditOperation(_NODE_DEL, ids1[i], None, x_node))
        else:
            ops.append(EditOperation(_NODE_SUB, ids1[i], ids2[slot], node_cost[i][slot]))
    mapped = set(mapping)
    for j, v in enumerate(ids2):
        if j not in mapped:
            ops.append(EditOperation(_NODE_INS, None, v, x_node))
    consumed: set[tuple[int, int]] = set()
    for i, j in a1.edges:
        a, b = mapping[i], mapping[j]
        e = (ids1[i], ids1[j])
        if a != eps and b != eps and kind2[a][b]:
            a, b = (a, b) if a < b else (b, a)
            consumed.add((a, b))
            k1, k2 = kind1[i][j], kind2[a][b]
            # the edge label distance: |x - y| for two values, 0 for two
            # unlabeled edges, 1 for one of each
            d = abs(val1[i][j] - val2[a][b]) if k1 == k2 == 2 else float(k1 != k2)
            ops.append(EditOperation(_EDGE_SUB, e, (ids2[a], ids2[b]), y_edge * d))
        else:
            ops.append(EditOperation(_EDGE_DEL, e, None, x_edge))
    for a, b in a2.edges:
        if (a, b) not in consumed:
            ops.append(EditOperation(_EDGE_INS, None, (ids2[a], ids2[b]), x_edge))
    return EditPath.from_operations(ops, complete=True)


def astar_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None,
              heuristic: Heuristic = Heuristic.BIPARTITE) -> GedResult:
    """Exact edit distance; returns the cheapest complete edit path.

    Every heuristic gives the same cost; ``heuristic`` changes only how many
    prefixes are expanded and, among equally cheap edit paths, which one is
    returned. A ``heuristic`` that is not a :class:`Heuristic` member fails.
    """
    _check_heuristic(heuristic)
    return _search(g1, g2, cm or DEFAULT_COST_MODEL, heuristic, width=None)


def beam_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None,
             w: int = 10) -> GedResult:
    """Width-limited search; cost is an upper bound on the exact distance."""
    _check_int(w, "beam width", 1)
    return _search(g1, g2, cm or DEFAULT_COST_MODEL, Heuristic.ZERO, width=w)


def run_search(g1: Graph, g2: Graph, cm: CostModel, search: SearchSpec) -> GedResult:
    if search.kind == "astar":
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
    contraction reports ride along in the result.
    """
    cm = cm or DEFAULT_COST_MODEL
    t0 = time.perf_counter()
    h1, rep1 = t_centrality_node_contraction(g1, t, measure)
    h2, rep2 = t_centrality_node_contraction(g2, t, measure)
    result = run_search(h1, h2, cm, search)
    result.contraction_reports = (rep1, rep2)
    result.elapsed = time.perf_counter() - t0
    return result


def bipartite_lower_bound(g1: Graph, g2: Graph, cm: CostModel) -> float:
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
    and cost model. The ``y_node * d(l_i, l_j)`` cells are the search's own
    empty-prefix rows (:func:`_node_costs`), the assignment is solved on
    the reduced n1 x n2 matrix of :func:`kernels.assignment`, and its
    matching is priced on these costs, so a graph against a copy of itself
    gives exactly 0.0, and two empty graphs give 0.0.
    """
    a1, a2 = g1.arrays(), g2.arrays()
    sub = _node_costs(a1, a2, cm.y_node)
    half = 0.5 * cm.x_edge
    deg1, deg2 = a1.deg, a2.deg
    matched = kernels.assignment(sub, deg1, deg2, cm.x_node, cm.x_edge)
    mapped1 = {i for i, _ in matched}
    mapped2 = {j for _, j in matched}
    return (sum((sub[i][j] + half * abs(deg1[i] - deg2[j]) for i, j in matched), 0.0)
            + sum(cm.x_node + half * d for i, d in enumerate(deg1) if i not in mapped1)
            + sum(cm.x_node + half * d for j, d in enumerate(deg2) if j not in mapped2))


def hausdorff_lower_bound(g1: Graph, g2: Graph, cm: CostModel) -> float:
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
    so a later call on the same graph only prices cells.
    """
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
    return 0.5 * (total + sum(best2))
