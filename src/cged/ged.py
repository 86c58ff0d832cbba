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
same bound at the empty prefix). The beam variant runs without a
heuristic and prunes the open list to the best ``w`` entries after each
expansion, trading optimality for speed while never returning less than
the true distance.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from . import kernels
from .centrality import CentralityMeasure
from .contraction import ContractionReport, t_centrality_node_contraction
from .costs import CostModel, EditOperation, EditPath, node_label_distance
from .graph import Graph, GraphArrays

EPS = kernels.EPS_SLOT  # mapping value for "deleted"


class Heuristic(Enum):
    """What exact A* adds to a prefix's accumulated cost: ``BIPARTITE`` (the
    default) the assignment bound of what is left to place, ``ZERO`` nothing
    (the unguided reference). Beam search always runs with ``ZERO``."""

    ZERO = "zero"
    BIPARTITE = "bipartite"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SearchSpec:
    """Which solver to run: exact best-first (``astar``, with a heuristic and
    no width) or width-limited ``beam`` (a width w >= 1 and no heuristic).

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
        if self.kind == "astar" and self.w:
            raise ValueError(f"astar search takes no width, got {self.w}")
        if self.kind == "beam" and self.w < 1:
            raise ValueError(f"beam width must be >= 1, got {self.w}")
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


class _BoundTables:
    """The bipartite bound's tables for one search, built only for
    :attr:`Heuristic.BIPARTITE`.

    With the first d source positions placed, the bound is the cost of
    deleting every unplaced source and inserting every unused target, each
    with its unpaid edges (in full towards a placed node or used target,
    half at each end otherwise), plus :func:`kernels.assignment` over one
    row per unplaced source. Row i, column j holds ``y_node * d(l_i, l_j)``
    plus ``edge substitution - 2 * x_edge`` per placed neighbour of i mapped
    onto a neighbour of j, whose edge pair is substituted rather than
    deleted and inserted.

    ``rows0`` holds the rows of the empty prefix; ``del_sums[d]`` the
    deletion cost of the sources at positions >= d; ``deg_r[d]`` each such
    source's edge count towards the others; ``masks`` and ``adj2`` each
    target's neighbours as a bitmask and as ascending positions.
    """

    __slots__ = ("rows0", "del_sums", "deg_r", "masks", "adj2")

    def __init__(self, a1: GraphArrays, a2: GraphArrays, node_dist: list, cm: CostModel):
        n1 = len(a1.ids)
        y_node = cm.y_node
        self.rows0 = tuple([y_node * d for d in row] for row in node_dist)
        # edges that reach position d or later: those whose larger end does
        reaching = [0] * (n1 + 1)
        for _, j in a1.edges:
            reaching[j] += 1
        for d in range(n1 - 1, -1, -1):
            reaching[d] += reaching[d + 1]
        self.del_sums = [cm.x_node * (n1 - d) + cm.x_edge * reaching[d] for d in range(n1 + 1)]
        self.deg_r = [[sum(1 for k in a1.adj[i] if k >= d) for i in range(d, n1)]
                      for d in range(n1 + 1)]
        self.masks = a2.masks
        self.adj2 = a2.adj


class _PairView:
    """One graph pair in the layout :func:`kernels.extend_costs` and
    :func:`_reconstruct` read, taken from both graphs'
    :class:`~cged.graph.GraphArrays`, plus the bound's tables when the
    search uses :attr:`Heuristic.BIPARTITE`."""

    __slots__ = ("ids1", "ids2", "n1", "n2", "kind1", "val1", "kind2", "val2",
                 "edges1", "edges2", "node_dist", "e2_masks", "bound")

    def __init__(self, g1: Graph, g2: Graph, cm: CostModel, heuristic: Heuristic):
        a1, a2 = g1.arrays(), g2.arrays()
        self.ids1, self.ids2 = a1.ids, a2.ids
        self.n1, self.n2 = len(a1.ids), len(a2.ids)
        self.kind1, self.val1 = a1.kind, a1.val
        self.kind2, self.val2 = a2.kind, a2.val
        self.edges1, self.edges2 = a1.edges, a2.edges
        self.node_dist = [[node_label_distance(a, b) for b in a2.labels]
                          for a in a1.labels]
        self.e2_masks = [(1 << i) | (1 << j) for i, j in a2.edges]
        self.bound = None
        if heuristic is Heuristic.BIPARTITE:
            self.bound = _BoundTables(a1, a2, self.node_dist, cm)

    def root(self, cm: CostModel) -> tuple:
        """The open-list entry of the empty prefix (complete when g1 is empty)."""
        if self.n1 == 0:
            g = kernels.completion_cost(self, 0, cm)
            return (g, 0, (), g, 0)
        if self.bound is None:
            return (0.0, 0, (), 0.0, 0)
        return (0.0, 0, (), 0.0, 0, self.bound.rows0)


def _search(g1: Graph, g2: Graph, cm: CostModel, heuristic: Heuristic,
            width: Optional[int]) -> GedResult:
    t0 = time.perf_counter()
    view = _PairView(g1, g2, cm, heuristic)
    n1 = view.n1
    # entry: (f, -depth, mapping, g, used[, bound rows]); the first three
    # form the total order
    heap = [view.root(cm)]
    expanded = 0
    while heap:
        entry = heapq.heappop(heap)
        if -entry[1] == n1:
            path = _reconstruct(view, cm, entry[2])
            elapsed = time.perf_counter() - t0
            return GedResult(cost=path.total_cost, path=path,
                             expanded_nodes=expanded, elapsed=elapsed)
        expanded += 1
        # looked up per call, so the step can be wrapped (e.g. traced) at runtime
        kernels.extend_costs(view, cm, heap, entry)
        if width is not None and len(heap) > width:
            # entries are unique and totally ordered, so this keeps the same
            # w entries as a partial selection, and a sorted list is a heap
            heap.sort()
            del heap[width:]
    raise RuntimeError("open list exhausted before a complete mapping")  # unreachable


def _reconstruct(view: _PairView, cm: CostModel, mapping: tuple[int, ...]) -> EditPath:
    """Expand a complete position mapping into an ordered operation list.

    Positions ascend with ids, so the operations come in ascending id order,
    and each cost is the float :meth:`CostModel.node_sub_cost` or
    :meth:`CostModel.edge_sub_cost` gives for the same labels.
    """
    ids1, ids2 = view.ids1, view.ids2
    kind1, val1, kind2, val2 = view.kind1, view.val1, view.kind2, view.val2
    ops: list[EditOperation] = []
    for i, slot in enumerate(mapping):
        if slot == EPS:
            ops.append(EditOperation.node_del(ids1[i], cm.x_node))
        else:
            ops.append(EditOperation.node_sub(ids1[i], ids2[slot],
                                              cm.y_node * view.node_dist[i][slot]))
    mapped = set(mapping)
    for j, v in enumerate(ids2):
        if j not in mapped:
            ops.append(EditOperation.node_ins(v, cm.x_node))
    consumed: set[tuple[int, int]] = set()
    for i, j in view.edges1:
        a, b = mapping[i], mapping[j]
        e = (ids1[i], ids1[j])
        if a != EPS and b != EPS and kind2[a][b]:
            a, b = (a, b) if a < b else (b, a)
            consumed.add((a, b))
            k1, k2 = kind1[i][j], kind2[a][b]
            # the edge label distance: |x - y| for two values, 0 for two
            # unlabeled edges, 1 for one of each
            d = abs(val1[i][j] - val2[a][b]) if k1 == k2 == 2 else float(k1 != k2)
            ops.append(EditOperation.edge_sub(e, (ids2[a], ids2[b]), cm.y_edge * d))
        else:
            ops.append(EditOperation.edge_del(e, cm.x_edge))
    for a, b in view.edges2:
        if (a, b) not in consumed:
            ops.append(EditOperation.edge_ins((ids2[a], ids2[b]), cm.x_edge))
    return EditPath.from_operations(ops, complete=True)


def astar_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None,
              heuristic: Heuristic = Heuristic.BIPARTITE) -> GedResult:
    """Exact edit distance; returns the cheapest complete edit path.

    Every heuristic gives the same cost; ``heuristic`` changes only how many
    prefixes are expanded and, among equally cheap edit paths, which one is
    returned.
    """
    return _search(g1, g2, cm or CostModel(), heuristic, width=None)


def beam_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None,
             w: int = 10) -> GedResult:
    """Width-limited search; cost is an upper bound on the exact distance."""
    if w < 1:
        raise ValueError(f"beam width must be >= 1, got {w}")
    return _search(g1, g2, cm or CostModel(), Heuristic.ZERO, width=w)


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
    cm = cm or CostModel()
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
    and cost model. The assignment is solved on the reduced n1 x n2 matrix
    of :func:`kernels.assignment`, and its matching is priced on these
    costs, so a graph against a copy of itself gives exactly 0.0, and two
    empty graphs give 0.0.
    """
    a1, a2 = g1.arrays(), g2.arrays()
    y_node, half = cm.y_node, 0.5 * cm.x_edge
    deg1 = [len(row) for row in a1.adj]
    deg2 = [len(row) for row in a2.adj]
    sub = [[y_node * node_label_distance(a, b) for b in a2.labels] for a in a1.labels]
    _, matched = kernels.assignment(sub, deg1, list(enumerate(deg2)), cm.x_node, cm.x_edge)
    mapped1 = {i for i, _ in matched}
    mapped2 = {j for _, j in matched}
    return (sum((sub[i][j] + half * abs(deg1[i] - deg2[j]) for i, j in matched), 0.0)
            + sum(cm.x_node + half * d for i, d in enumerate(deg1) if i not in mapped1)
            + sum(cm.x_node + half * d for j, d in enumerate(deg2) if j not in mapped2))


def brute_force_ged(g1: Graph, g2: Graph, cm: Optional[CostModel] = None) -> float:
    """Exhaustive reference distance; usable only for tiny pairs.

    Enumerates every injective partial mapping between the node sets,
    prices it with the plain graph API (shared with nothing in the search
    path), and returns the minimum.
    """
    cm = cm or CostModel()
    if g1.order + g2.order > 9:
        raise ValueError("brute_force_ged is limited to |V1| + |V2| <= 9")
    ids1, ids2 = g1.nodes(), g2.nodes()
    edges1, edges2 = g1.edges(), g2.edges()
    best = float("inf")
    for r in range(min(len(ids1), len(ids2)) + 1):
        for sources in itertools.combinations(ids1, r):
            for targets in itertools.permutations(ids2, r):
                m = dict(zip(sources, targets))
                cost = (len(ids1) - r + len(ids2) - r) * cm.x_node
                for u, v in m.items():
                    cost += cm.node_sub_cost(g1.node_label(u), g2.node_label(v))
                consumed = set()
                for u, v, label in edges1:
                    a, b = m.get(u), m.get(v)
                    if a is not None and b is not None and g2.has_edge(a, b):
                        consumed.add((a, b) if a < b else (b, a))
                        cost += cm.edge_sub_cost(label, g2.edge_label(a, b))
                    else:
                        cost += cm.x_edge
                for a, b, _ in edges2:
                    if (a, b) not in consumed:
                        cost += cm.x_edge
                if cost < best:
                    best = cost
    return best
