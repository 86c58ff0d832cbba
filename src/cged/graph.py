"""Undirected labeled graphs and the structural queries the rest of the toolkit needs.

Graphs are simple (no self-loops, no parallel edges) and undirected. Node
labels are either plane coordinates (:class:`Point2D`) or symbolic tokens
(plain ``str``, e.g. a chemical element); edge labels are either ``None``
(unlabeled) or a finite number (e.g. a bond valence).

Node ids are dense integers handed out at creation and never reused, so a
node keeps its identity through copies and deletions. All public iteration
orders are ascending by id, which makes every downstream computation
deterministic.

Search and centrality read the :class:`GraphArrays` that a graph caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union


class GraphError(ValueError):
    """Base class for structural graph violations."""


class MissingNodeError(GraphError):
    """An operation referenced a node id that is not in the graph."""


class MissingEdgeError(GraphError):
    """An operation referenced an edge that is not in the graph."""


class SelfLoopError(GraphError):
    """Self-loops are not allowed."""


class DuplicateEdgeError(GraphError):
    """Parallel edges are not allowed."""


@dataclass(frozen=True)
class Point2D:
    """Plane-coordinate node label (unitless)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


#: A node label: plane coordinates or a non-empty symbolic token.
NodeLabel = Union[Point2D, str]

#: An edge label: ``None`` for unlabeled edges, a finite number otherwise.
EdgeLabel = Optional[float]


def _check_node_label(label: NodeLabel) -> NodeLabel:
    if isinstance(label, Point2D):
        return label
    if isinstance(label, str):
        if not label:
            raise ValueError("symbolic node label must be a non-empty string")
        return label
    raise TypeError(f"node label must be Point2D or str, got {type(label).__name__}")


def _check_edge_label(label: EdgeLabel) -> EdgeLabel:
    if label is None:
        return None
    value = float(label)
    if not math.isfinite(value):
        raise ValueError(f"numeric edge label must be finite, got {label!r}")
    return value


@dataclass(frozen=True)
class GraphArrays:
    """A graph indexed by node position: position i holds the i-th smallest id.

    ``ids`` lists the ids ascending and ``pos`` maps each id to its position;
    ``labels`` holds the node labels and ``adj`` the ascending neighbour
    positions of each node. ``kind[i][j]`` is 0 when positions i and j share
    no edge, 1 when their edge is unlabeled and 2 when it has a numeric
    label, which ``val[i][j]`` then holds (``val`` is 0.0 elsewhere).
    ``edges`` lists the (i, j) pairs of all edges, i < j, ascending. All but
    ``pos`` are tuples, so no reader can change the form the others share;
    ``pos`` is a dict that readers must not modify.
    """

    ids: tuple[int, ...]
    pos: dict[int, int]
    labels: tuple[NodeLabel, ...]
    adj: tuple[tuple[int, ...], ...]
    kind: tuple[tuple[int, ...], ...]
    val: tuple[tuple[float, ...], ...]
    edges: tuple[tuple[int, int], ...]


class Graph:
    """A simple undirected graph with labeled nodes and edges.

    Two graphs compare equal when they have the same node ids with the same
    labels and the same labeled edges; ``name`` and ``class_label`` are
    metadata and do not participate in equality.

    ``_memo`` is a dict where :mod:`cged.evaluation` keeps what it derived
    from this graph (T-level budgets, contracted graphs). Every mutator
    empties it; copies and pickles start without it.
    """

    __slots__ = ("name", "class_label", "_labels", "_adj", "_next_id", "_arrays", "_memo")

    def __init__(self, name: str | None = None, class_label: str | None = None):
        self.name = name
        self.class_label = class_label
        self._labels: dict[int, NodeLabel] = {}
        self._adj: dict[int, dict[int, EdgeLabel]] = {}
        self._next_id = 0
        self._arrays: GraphArrays | None = None
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------

    def add_node(self, label: NodeLabel) -> int:
        """Add a node with a fresh id and return that id."""
        label = _check_node_label(label)
        u = self._next_id
        self._next_id += 1
        self._labels[u] = label
        self._adj[u] = {}
        self._arrays = None
        self._memo = {}
        return u

    def add_edge(self, u: int, v: int, label: EdgeLabel = None) -> None:
        """Add the undirected edge {u, v}.

        Raises :class:`SelfLoopError`, :class:`MissingNodeError` or
        :class:`DuplicateEdgeError` on the corresponding violation.
        """
        if u == v:
            raise SelfLoopError(f"self-loop on node {u}")
        for w in (u, v):
            if w not in self._labels:
                raise MissingNodeError(f"edge endpoint {w} is not in the graph")
        if v in self._adj[u]:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        label = _check_edge_label(label)
        self._adj[u][v] = label
        self._adj[v][u] = label
        self._arrays = None
        self._memo = {}

    def delete_node(self, u: int) -> None:
        """Remove node u and every incident edge."""
        if u not in self._labels:
            raise MissingNodeError(f"node {u} is not in the graph")
        for w in self._adj[u]:
            del self._adj[w][u]
        del self._adj[u]
        del self._labels[u]
        self._arrays = None
        self._memo = {}

    def copy(self) -> "Graph":
        g = Graph(name=self.name, class_label=self.class_label)
        g._labels = dict(self._labels)
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._next_id = self._next_id
        # the form is immutable and every mutator replaces it, so a copy can share it
        g._arrays = self._arrays
        return g

    def __getstate__(self) -> dict:
        # the cached form and the memo are rebuilt on demand, so pickles
        # (e.g. pool tasks) leave them out
        return {name: getattr(self, name) for name in self.__slots__
                if name not in ("_arrays", "_memo")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._arrays = None
        self._memo = {}

    @classmethod
    def from_parts(
        cls,
        name: str | None,
        class_label: str | None,
        nodes: list[tuple[int, NodeLabel]],
        edges: list[tuple[int, int, EdgeLabel]],
    ) -> "Graph":
        """Rebuild a graph with explicit node ids (parser and test helper)."""
        g = cls(name=name, class_label=class_label)
        for u, label in nodes:
            if not isinstance(u, int) or u < 0:
                raise ValueError(f"node id must be a non-negative integer, got {u!r}")
            if u in g._labels:
                raise ValueError(f"duplicate node id {u}")
            g._labels[u] = _check_node_label(label)
            g._adj[u] = {}
        g._next_id = max(g._labels, default=-1) + 1
        for u, v, label in edges:
            g.add_edge(u, v, label)
        return g

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_node(self, u: int) -> bool:
        return u in self._labels

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def node_label(self, u: int) -> NodeLabel:
        if u not in self._labels:
            raise MissingNodeError(f"node {u} is not in the graph")
        return self._labels[u]

    def edge_label(self, u: int, v: int) -> EdgeLabel:
        if u not in self._labels or v not in self._labels:
            raise MissingNodeError(f"edge endpoint missing: ({u}, {v})")
        if v not in self._adj[u]:
            raise MissingEdgeError(f"edge ({u}, {v}) is not in the graph")
        return self._adj[u][v]

    def degree(self, u: int) -> int:
        if u not in self._labels:
            raise MissingNodeError(f"node {u} is not in the graph")
        return len(self._adj[u])

    def nodes(self) -> list[int]:
        """Node ids in ascending order."""
        return sorted(self._labels)

    def node_items(self) -> list[tuple[int, NodeLabel]]:
        return [(u, self._labels[u]) for u in self.nodes()]

    def neighbors(self, u: int) -> list[int]:
        if u not in self._labels:
            raise MissingNodeError(f"node {u} is not in the graph")
        return sorted(self._adj[u])

    def edges(self) -> list[tuple[int, int, EdgeLabel]]:
        """Edges as (u, v, label) with u < v, ascending."""
        out = []
        for u in self.nodes():
            for v, label in self._adj[u].items():
                if u < v:
                    out.append((u, v, label))
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    def arrays(self) -> GraphArrays:
        """This graph's :class:`GraphArrays`, built on first use (or shared
        with the graph this one was copied from) and kept until the next
        :meth:`add_node`, :meth:`add_edge` or :meth:`delete_node`."""
        if self._arrays is None:
            ids = sorted(self._labels)
            pos = {u: i for i, u in enumerate(ids)}
            kind, val, adj = [], [], []
            for i, u in enumerate(ids):
                krow, vrow, row = [0] * len(ids), [0.0] * len(ids), []
                for v, label in self._adj[u].items():
                    j = pos[v]
                    row.append(j)
                    if label is None:
                        krow[j] = 1
                    else:
                        krow[j], vrow[j] = 2, label
                row.sort()
                kind.append(tuple(krow))
                val.append(tuple(vrow))
                adj.append(tuple(row))
            self._arrays = GraphArrays(
                tuple(ids), pos, tuple([self._labels[u] for u in ids]), tuple(adj),
                tuple(kind), tuple(val),
                tuple([(i, j) for i, row in enumerate(adj) for j in row if j > i]))
        return self._arrays

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------

    def connected_components(self) -> list[set[int]]:
        """Partition of the node set into components, ordered by smallest member."""
        seen: set[int] = set()
        blocks: list[set[int]] = []
        for start in self.nodes():
            if start in seen:
                continue
            block = {start}
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for v in self._adj[u]:
                    if v not in block:
                        block.add(v)
                        frontier.append(v)
            seen |= block
            blocks.append(block)
        return blocks

    def component_count(self) -> int:
        return len(self.connected_components())

    def articulation_points(self) -> set[int]:
        """All cut vertices, via one iterative depth-first low-link pass."""
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        parent: dict[int, int | None] = {}
        aps: set[int] = set()
        counter = 0
        for root in self.nodes():
            if root in disc:
                continue
            parent[root] = None
            root_children = 0
            disc[root] = low[root] = counter
            counter += 1
            stack: list[tuple[int, Iterator[int]]] = [(root, iter(self.neighbors(root)))]
            while stack:
                u, it = stack[-1]
                descended = False
                for v in it:
                    if v not in disc:
                        parent[v] = u
                        if u == root:
                            root_children += 1
                        disc[v] = low[v] = counter
                        counter += 1
                        stack.append((v, iter(self.neighbors(v))))
                        descended = True
                        break
                    if v != parent[u]:
                        low[u] = min(low[u], disc[v])
                if not descended:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        if p != root and low[u] >= disc[p]:
                            aps.add(p)
            if root_children > 1:
                aps.add(root)
        return aps

    # ------------------------------------------------------------------
    # equality
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} |V|={self.order} |E|={self.size}>"


def is_cut_vertex_by_recount(g: Graph, u: int) -> bool:
    """Cut-vertex check by deleting u and recounting components.

    Independent of the depth-first low-link pass; the two must always agree.
    """
    if not g.has_node(u):
        raise MissingNodeError(f"node {u} is not in the graph")
    before = g.component_count()
    probe = g.copy()
    probe.delete_node(u)
    return probe.component_count() > before
