"""Undirected labeled graphs and the structural queries the rest of the toolkit needs.

Graphs are simple (no self-loops, no parallel edges) and undirected. Node
labels are either plane coordinates (:class:`Point2D`) or symbolic tokens
(plain ``str``, e.g. a chemical element); edge labels are either ``None``
(unlabeled) or a finite number (e.g. a bond valence).

Node ids are dense integers handed out at creation and never reused, so a
node keeps its identity through copies and deletions. All public iteration
orders are ascending by id, which makes every downstream computation
deterministic.

Search, centrality and contraction read the :class:`GraphArrays` that a
graph caches.

This bottom module is also the one home of the argument rules that every
layer applies, one function per kind of value: :func:`_check_int` for
counts, node ids and seeds, :func:`_check_type` for selectors and cost
models, and :func:`_check_real` for coordinates, edge labels, edit costs
and the synthetic corpus's distortion. Their messages, the structural
errors below and :class:`~cged.ged.SearchSpec`'s print a caller's value
through one renderer, :func:`_shown`, so no message fails to print it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Optional, Sequence, Union


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


def _shown(value, text=repr) -> str:
    """A caller's value as a message prints it: ``text(value)`` (``repr``,
    or ``str`` for node ids and widths), except an int too long to convert
    to decimal, which is named by its size, such as ``an int of 16610
    bits``, where printing it would raise Python's own ``ValueError``."""
    try:
        return text(value)
    except ValueError:
        if not isinstance(value, int):
            raise
    return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _check_int(value, name: str, least: int) -> None:
    """A count (a contraction budget, a beam width, or a number of workers,
    graphs to sample from, sampled pairs, synthesized graphs or classes), a
    node id or a seed is an int >= ``least`` and not a bool, checked before
    any work starts. Otherwise 1.5 would be rounded up by one contraction
    flavor and remove nothing in another, nan would never prune a beam, inf
    would remove n - 1 nodes and be reported as Infinity, 2.5 would fail
    midway, True would count as 1 (or pass as node 1), and numpy would
    judge a seed by rules of its own."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {_shown(value)}")


def _check_type(value, kind: type, name: str) -> None:
    """An argument that selects what runs (a heuristic, a measure, a level
    or a search) or prices it (a cost model) is a ``kind``, checked before
    any work starts. Otherwise a string or a member of another enum would
    run something else, run nothing, or fail only after work was done."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {_shown(value)}")


def _check_real(value, name: str, least: float = -math.inf) -> float:
    """A coordinate, a numeric edge label, an edit cost or a distortion as a
    float: ``TypeError`` for a bool or a value that is not a real number
    (text included), ``ValueError`` for one that is not finite, an int too
    large for a float included, or that is below ``least``."""
    # an int or a float (a bool is neither) skips the slower check against Real
    if type(value) not in (int, float) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise TypeError(f"{name} must be a real number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and number >= least):
        bound = "" if least == -math.inf else f" and >= {least}"
        raise ValueError(f"{name} must be finite{bound}, got {_shown(value)}")
    return number


@dataclass(frozen=True)
class Point2D:
    """Plane-coordinate node label (unitless); both coordinates pass
    :func:`_check_real` and are stored as floats."""

    x: float
    y: float

    def __post_init__(self) -> None:
        x, y = self.x, self.y
        # finite floats, which most parsed points hold, skip the general rule
        if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
            return
        object.__setattr__(self, "x", _check_real(x, "x"))
        object.__setattr__(self, "y", _check_real(y, "y"))


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
    # a finite float, which most parsed and built labels are, skips the general rule
    if label is None or type(label) is float and math.isfinite(label):
        return label
    return _check_real(label, "numeric edge label")


@dataclass(frozen=True)
class GraphArrays:
    """A graph indexed by node position: position i holds the i-th smallest id.

    ``ids`` lists the ids ascending and ``pos`` maps each id to its position;
    ``labels`` holds the node labels in the form the kernels compare, an
    ``(x, y)`` float pair for a :class:`Point2D` and the string itself for
    a symbol, ``deg`` the degrees and ``adj`` the ascending neighbour
    positions of each node, which ``masks[i]`` holds again as an int with
    bit j set for each neighbour position j. ``kind[i][j]`` is 0 when
    positions i and j share no edge, 1 when their edge is unlabeled and 2
    when it has a numeric label, which ``val[i][j]`` then holds (``val`` is
    0.0 elsewhere).
    ``edges`` lists the (i, j) pairs of all edges, i < j, ascending. All but
    ``pos`` are tuples, so no reader can change the form the others share;
    ``pos`` is a dict that readers must not modify.
    """

    ids: tuple[int, ...]
    pos: dict[int, int]
    labels: tuple[Union[tuple[float, float], str], ...]
    deg: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    kind: tuple[tuple[int, ...], ...]
    val: tuple[tuple[float, ...], ...]
    edges: tuple[tuple[int, int], ...]


class Graph:
    """A simple undirected graph with labeled nodes and edges.

    Two graphs compare equal when they have the same node ids with the same
    labels and the same labeled edges; ``name`` and ``class_label`` are
    metadata and do not participate in equality.

    ``_memo`` is a dict where :mod:`cged.evaluation` keeps what it derived
    from this graph (T-level budgets, contraction walks, contracted graphs);
    the labels and degrees the bounds read live in :meth:`arrays`. Every
    mutator empties it; copies and pickles start without it.
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

        Raises ``ValueError`` for an endpoint that is not a non-negative
        int (``True`` included), and otherwise as :meth:`_link`.
        """
        _check_int(u, "node id", 0)
        _check_int(v, "node id", 0)
        self._link(u, v, label)
        self._arrays = None
        self._memo = {}

    def _link(self, u: int, v: int, label: EdgeLabel) -> None:
        """Store the edge {u, v} between two int ids without emptying the
        caches. Every edge a graph gains passes here, so these are its only
        edge rules.

        Raises :class:`SelfLoopError`, :class:`MissingNodeError` or
        :class:`DuplicateEdgeError` on the corresponding violation, then
        ``TypeError`` for a label that is neither ``None`` nor a real
        number (a bool or a string included) and ``ValueError`` for a
        non-finite one; a numeric label is stored as a float.
        """
        if u == v:
            raise SelfLoopError(f"self-loop on node {_shown(u, str)}")
        for w in (u, v):
            if w not in self._labels:
                raise MissingNodeError(f"edge endpoint {_shown(w, str)} is not in the graph")
        if v in self._adj[u]:
            raise DuplicateEdgeError(f"edge ({_shown(u, str)}, {_shown(v, str)}) already present")
        label = _check_edge_label(label)
        self._adj[u][v] = label
        self._adj[v][u] = label

    def delete_node(self, u: int) -> None:
        """Remove node u and every incident edge."""
        if u not in self._labels:
            raise MissingNodeError(f"node {_shown(u, str)} is not in the graph")
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

    def without(self, ids: Iterable[int]) -> "Graph":
        """A copy of this graph minus the given nodes and their edges, which
        shares the cached form when ``ids`` is empty."""
        g = self.copy()
        for u in ids:
            g.delete_node(u)
        return g

    def __getstate__(self) -> dict:
        # the cached form and the memo are rebuilt on demand, so pickles
        # leave them out: a contracted test graph sent to a classification
        # worker builds its form there (the training graphs reach the forked
        # workers by inheritance, with the forms the parent built)
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
            _check_int(u, "node id", 0)
            if u in g._labels:
                raise ValueError(f"duplicate node id {_shown(u, str)}")
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
        return sum(map(len, self._adj.values())) // 2

    def has_node(self, u: int) -> bool:
        return u in self._labels

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def node_label(self, u: int) -> NodeLabel:
        if u not in self._labels:
            raise MissingNodeError(f"node {_shown(u, str)} is not in the graph")
        return self._labels[u]

    def edge_label(self, u: int, v: int) -> EdgeLabel:
        if u not in self._labels or v not in self._labels:
            raise MissingNodeError(f"edge endpoint missing: ({_shown(u, str)}, {_shown(v, str)})")
        if v not in self._adj[u]:
            raise MissingEdgeError(f"edge ({_shown(u, str)}, {_shown(v, str)}) is not in the graph")
        return self._adj[u][v]

    def degree(self, u: int) -> int:
        if u not in self._labels:
            raise MissingNodeError(f"node {_shown(u, str)} is not in the graph")
        return len(self._adj[u])

    def nodes(self) -> list[int]:
        """Node ids in ascending order."""
        return sorted(self._labels)

    def node_items(self) -> list[tuple[int, NodeLabel]]:
        return [(u, self._labels[u]) for u in self.nodes()]

    def neighbors(self, u: int) -> list[int]:
        if u not in self._labels:
            raise MissingNodeError(f"node {_shown(u, str)} is not in the graph")
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
            labels = tuple([(lab.x, lab.y) if isinstance(lab, Point2D) else lab
                            for lab in map(self._labels.__getitem__, ids)])
            self._arrays = GraphArrays(
                tuple(ids), pos, labels, tuple([len(row) for row in adj]), tuple(adj),
                tuple([sum(1 << j for j in row) for row in adj]), tuple(kind), tuple(val),
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
        """All cut vertices, each decided by :func:`is_cut_vertex`."""
        form = self.arrays()
        alive = (1 << len(form.ids)) - 1
        return {u for p, u in enumerate(form.ids) if is_cut_vertex(form.masks, alive, p)}

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


def reach(masks: Sequence[int], alive: int, seed: int) -> int:
    """The positions reachable from the bits of ``seed`` through the
    neighbour bitmasks ``masks`` (see :attr:`GraphArrays.masks`), moving
    only between positions whose bits are set in ``alive``; ``seed`` must
    lie within ``alive``."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def is_cut_vertex(masks: Sequence[int], alive: int, p: int) -> bool:
    """Whether removing live position p splits the live positions' graph
    (``alive`` and ``masks`` as in :func:`reach`): p needs two or more live
    neighbours, and :func:`reach` must not join them once p is gone."""
    nb = masks[p] & alive
    return nb & (nb - 1) != 0 and nb & ~reach(masks, alive & ~(1 << p), nb & -nb) != 0
