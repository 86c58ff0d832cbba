"""The edit-distance search and the betweenness kernel.

Two inner loops dominate the toolkit's runtime: the expansion step of the
edit-distance search (called once per open-list pop) and the per-source
accumulation of betweenness centrality. Both are plain Python and read the
tuple rows of :class:`cged.graph.GraphArrays`. The graphs they see are
small (letters and molecules of a few to a few dozen nodes), where Python
sequences and int bitmasks beat numpy's per-call overhead. :mod:`cged.ged`
says which search runs and what it returns; this module is where a search
is laid out and run.

:func:`search` is a best-first search over partial node mappings. It places
the first graph's nodes in ascending position (and so id) order. Every
open-list entry is a prefix mapping: each placed node is either mapped onto
a distinct node of the second graph or deleted. Expanding an entry
(:func:`extend_costs`) places the next node every possible way; edge
operations are charged as soon as both endpoints are placed, so the
accumulated cost ``g`` of a prefix is exact. Placing the last source node
also inserts the leftover target nodes and their edges, making the entry
complete. The first complete entry to come off the open list is expanded
into an edit path by :func:`_reconstruct`.

The pair view (:class:`_PairView`), built once per search, holds what the
search reads of the pair: the two graphs' forms ``a1`` and ``a2`` (whose
``kind``, ``val``, ``masks``, ``adj`` and ``edges`` it reads), their orders
``n1`` and ``n2``, the node label costs ``node_cost`` (also the bipartite
bound's empty-prefix rows), the bound's per-depth terms ``depth_terms``
(None without the bound) and ``kept``, the cell rows of the last
expansion's unsettled children.

An open-list entry is ``(f, -depth, mapping, g, used, rows, unsolved)``.
``mapping`` is a tuple of target positions, one per placed source in
position order, with :data:`EPS_SLOT` marking a deleted source; ``used`` is
an int bitmask of the target positions it uses. The first three fields
form the total order (cheapest first, then deeper, then the mapping
lexicographic); mappings are unique, so comparison never reaches ``g``,
and costs, edit paths and expansion counts are reproducible. The step
appends children in no useful order, and the search orders them. Exact A*
keeps its open list as a heap and pops until a complete entry surfaces.
Beam keeps an ascending list of at most ``w`` entries: it pops the first,
inserts each child in order and drops whatever falls past ``w``. A beam
wider than its open list ever grows prunes nothing and costs more per
step than the heap; that search is exact A* under :attr:`Heuristic.ZERO`.

Without the bound, ``f`` is ``g`` and ``rows`` and ``unsolved`` are None.
Under :attr:`Heuristic.BIPARTITE`, ``f`` adds to ``g`` the bipartite bound
of what is left to place (see :class:`_PairView`), ``rows`` holds the rows
of the bound's assignment matrix, and the step reads only the value of
that assignment. It builds the bound's clipped cells once per expansion,
and each child rebuilds only the columns it changes. Three exact
certificates give the value without a solver: no row with a negative
cell, one row or one column, and every row's cheapest cell in a column of
its own (see :func:`_value`). Each returns the float that scipy's matching
gives when summed in row order. Where two or more rows want one column,
the child is unsettled: its first field is a floor of its ``f`` and
``unsolved`` holds what :func:`settle` needs to solve its assignment.
:func:`settle` gives the entry its ``f`` and sets ``unsolved`` to None.
Exact A* settles an entry when it reaches the top of the heap and pushes
it back; beam settles each child before inserting it. Only settled entries
are expanded or returned, so costs, paths and expansion counts are those
of solving every assignment at once. A complete entry carries neither
``rows`` nor ``unsolved``. ``scipy.optimize`` is imported once, on the
first assignment that needs it (see :func:`_solver`). :func:`assignment`
returns the matching itself, for :func:`cged.ged.bipartite_lower_bound`,
from the same cell builder and solver.
"""

from __future__ import annotations

import functools
from bisect import insort
from enum import Enum
from heapq import heappop, heappush, heappushpop
from math import hypot
from typing import Optional

from .costs import CostModel, EditOperation, EditPath, OpKind

EPS_SLOT = -1  # mapping value for "source node deleted"

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


# ----------------------------------------------------------------------
# edit search: the pair view, the open-list loop and the edit path
# ----------------------------------------------------------------------

def _node_costs(a1, a2, y_node: float) -> tuple:
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
    """One graph pair as the search reads it (its fields are listed in the
    module docstring).

    ``depth_terms`` is None unless the search uses
    :attr:`Heuristic.BIPARTITE`. With the first d source positions placed,
    that bound is the cost of deleting every unplaced source and inserting
    every unused target, each with its unpaid edges (in full towards a
    placed node or used target, half at each end otherwise), plus
    :func:`assignment` over one row per unplaced source. Row i, column j
    holds ``node_cost[i][j]`` plus ``edge substitution - 2 * x_edge`` per
    placed neighbour of i mapped onto a neighbour of j, whose edge pair is
    substituted rather than deleted and inserted; at the empty prefix the
    rows are ``node_cost`` itself, the cells of
    :func:`cged.ged.bipartite_lower_bound`.

    ``depth_terms[d]`` holds what the bound needs of the sources after
    source d, which depends on d alone, for every d below the last: the
    ``(row index, edge kind, edge value)`` of each of them linked to d, their
    degrees towards each other, their row terms ``x_edge * degree + 2 *
    x_node``, and the cost of deleting them all with every edge that reaches
    them.
    """

    __slots__ = ("a1", "a2", "n1", "n2", "node_cost", "depth_terms", "kept")

    def __init__(self, g1, g2, cm: CostModel, heuristic: Heuristic):
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


def search(g1, g2, cm: CostModel, heuristic: Heuristic,
           width: Optional[int]) -> tuple[EditPath, int]:
    """The edit path of the first complete entry to leave the open list, and
    the number of entries expanded, under ``heuristic``: exact A* when
    ``width`` is None, and otherwise beam of that width.

    :func:`extend_costs` and :func:`settle` are looked up in this module on
    every call, so either can be wrapped (e.g. traced) at runtime."""
    view = _PairView(g1, g2, cm, heuristic)
    n1 = view.n1
    # every entry short of complete has a child (its deletion), so the
    # open list never runs dry
    frontier = [view.root()]
    children: list = []
    expanded = 0
    while True:
        if width is None:
            entry = heappop(frontier)
            # an unsettled entry is keyed below its f: settled, it is
            # expanded only if it still comes first
            while entry[6] is not None:
                entry = heappushpop(frontier, settle(view, cm, entry))
        else:
            entry = frontier.pop(0)
        if -entry[1] == n1:
            return _reconstruct(view, cm, entry[2]), expanded
        expanded += 1
        extend_costs(view, cm, children, entry)
        if width is None:
            for child in children:
                heappush(frontier, child)
        else:
            # entries are unique and totally ordered, so this keeps exactly
            # the ``width`` best of the old beam and the new children; a beam
            # orders by exact keys only, so each child is settled first
            for child in children:
                if child[6] is not None:
                    child = settle(view, cm, child)
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
    ops: list[EditOperation] = []
    for i, slot in enumerate(mapping):
        if slot == EPS_SLOT:
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
        if a != EPS_SLOT and b != EPS_SLOT and kind2[a][b]:
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


# ----------------------------------------------------------------------
# edit search: the expansion step and the bound's assignment
# ----------------------------------------------------------------------

def _cells(row, xr: float, dr: int, terms) -> list:
    """One row of the reduced matrix (see :func:`assignment`), clipped at 0:
    per ``(target position j, degree dc, x_edge * dc + 2 * x_node)`` triple
    of ``terms``, ``row[j]`` less the row term ``xr`` (``x_edge * dr + 2 *
    x_node``) when ``dr < dc`` and the column term otherwise. Every cell of
    the bound is this expression on these operands, so a cell is the same
    float however it is reached; :func:`extend_costs` repeats it inline for
    the few columns a child rebuilds, where a call per row costs more than
    the cells."""
    return [c if (c := row[j] - (xr if dr < dc else xc)) < 0.0 else 0.0 for j, dc, xc in terms]


def _minima(cell_rows) -> tuple[list, list, list, list]:
    """The cell rows that hold a negative cell, in row order: their indexes,
    the rows themselves, their minima and each minimum's first column. A
    row without a negative cell cannot gain from a matching, so it is
    dropped."""
    keep, neg, mins, wants = [], [], [], []
    for k, cells in enumerate(cell_rows):
        if cells and (m := min(cells)) < 0.0:
            keep.append(k)
            neg.append(cells)
            mins.append(m)
            wants.append(cells.index(m))
    return keep, neg, mins, wants


def _reduced(rows, degs, terms, x_node: float, x_edge: float) -> tuple[list, list, list, list]:
    """:func:`_minima` of the reduced matrix's clipped rows: one row of
    :func:`_cells` per row of ``rows``, whose degree ``degs`` gives, over
    the columns of ``terms``."""
    two_x = x_node + x_node
    return _minima([_cells(row, x_edge * dr + two_x, dr, terms) for row, dr in zip(rows, degs)])


@functools.cache
def _solver():
    """``scipy.optimize.linear_sum_assignment``, imported on first use: the
    import takes most of a second, and most bounds never need it."""
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


def _matching(matrix: list) -> zip:
    """scipy's minimum-cost matching of ``matrix`` (equally long rows) as
    (row, column) pairs in ascending row order."""
    picked_rows, picked_cols = _solver()(matrix)
    return zip(picked_rows.tolist(), picked_cols.tolist())


def _value(neg: list, mins: list, wants: list) -> tuple[float, bool]:
    """The assignment's value over the clipped cell rows ``neg``, each with
    a negative cell, whose minima are ``mins`` and first cheapest columns
    ``wants``, as ``(value, True)`` where a certificate gives it, and
    otherwise as ``(floor, False)``, the value left to :func:`_solved`. The
    value is the float that scipy's matching gives when its negative cells
    are summed in row order.

    Three certificates answer without scipy:

    * no row: 0.0;
    * one row or one column: the smallest cell;
    * every row's first cheapest cell in a column of its own: the sum of
      the minima in row order.

    Each certificate forces the optimum's cell value in every row (in exact
    arithmetic, a matching that pays another value in any row costs more),
    so its sum in row order is the one scipy's matching gives. Two or more
    rows wanting one column need scipy: a check that moving one of two such
    rows is optimal cost more than the solver call it saved. Their floor is
    still the minima summed in row order, which is at most the value to the
    bit: each row's minimum is at most its matched cell (or the 0.0 of a
    row left unmatched), and adding floats left to right is monotone in
    every term.
    """
    n = len(wants)
    if n < 2 or len(neg[0]) == 1:
        return min(mins, default=0.0), True
    # left to right, as scipy's matching is summed: from Python 3.12,
    # sum() of floats is compensated and would differ in the last bit
    total = 0.0
    for m in mins:
        total += m
    return total, len(set(wants)) == n


def _solved(neg: list) -> float:
    """The value of the assignment over the clipped cell rows ``neg``:
    scipy's matching, its negative cells summed in row order."""
    total = 0.0
    for i, j in _matching(neg):
        c = neg[i][j]
        if c < 0.0:
            total += c
    return total


def settle(view, cm, entry: tuple) -> tuple:
    """An unsettled open-list entry, keyed by its exact ``f``: ``g + (rest +
    value)``, the float the expansion step gives a bound it solves at once.

    The entry holds ``(rest, kept, i)``: its clipped cell rows are
    ``kept[i]`` until the next expansion empties ``kept``. An older entry's
    are built here again, by :func:`_cells` over the entry's own rows with
    the row degrees and terms of its depth and the columns of its unused
    targets: the operands and expression the expansion step patched them
    from, so every cell is the same float."""
    _, negd, mapping, g, used, rows, (rest, kept, i) = entry
    if kept:
        neg = kept[i]
    else:
        x_node, x_edge = cm.x_node, cm.x_edge
        two_x = x_node + x_node
        masks = view.a2.masks
        terms = [(j, dc, x_edge * dc + two_x) for j in range(view.n2) if not used >> j & 1
                 for dc in [(masks[j] & ~used).bit_count()]]
        neg = _reduced(rows, view.depth_terms[-negd - 1][1], terms, x_node, x_edge)[1]
    return (g + (rest + _solved(neg)), negd, mapping, g, used, rows, None)


def assignment(rows, degs, cols, x_node: float, x_edge: float) -> list:
    """The matching of the bipartite bound's assignment, on the reduced matrix.

    ``rows`` holds one list per source node, indexed by target position;
    ``degs`` gives each source node's degree and ``cols`` each target
    node's, by position. Cell (i, j) is
    ``min(rows[i][j] - x_edge * min(deg_i, deg_j) - 2 * x_node, 0)``: the
    substitution cost of the (r + c)-square epsilon-padded assignment less
    i's deletion and j's insertion cost (see :class:`_PairView`),
    clipped at 0. Returns the minimum-cost assignment's negative cells as
    (row index, target position) pairs in ascending row order.

    A matching gains only from negative cells, and a row or column it
    leaves unmatched keeps its deletion or insertion, so the padded optimum
    is the sum of all deletions and insertions plus the matched cells,
    exactly. Rows without a negative cell are dropped and a single row or
    column is solved directly; the rest go to scipy, whose matching this
    returns: :func:`cged.ged.bipartite_lower_bound` prices the matched
    cells itself, so the matching must be the solver's.
    """
    two_x = x_node + x_node
    terms = [(j, dc, x_edge * dc + two_x) for j, dc in enumerate(cols)]
    keep, neg, mins, _ = _reduced(rows, degs, terms, x_node, x_edge)
    if not neg:
        return []
    if len(neg) == 1 or len(cols) == 1:
        best, k, at = min(zip(mins, keep, neg))
        return [(k, at.index(best))]
    return [(keep[i], j) for i, j in _matching(neg) if neg[i][j] < 0.0]


def extend_costs(view, cm, children: list, entry: tuple) -> None:
    """Expand one open-list entry: price every child and append it to
    ``children``, unordered.

    Source node number ``depth`` (the length of the entry's mapping) is
    placed on every unused target position in ascending order and, last,
    deleted. A child's ``g`` adds the node operation and the edges it closes
    towards the already-placed source nodes. A target slot costs

        node_cost + y_edge * (sum of edge-substitution distances)
        + x_edge * (edge insertions and deletions)

    and a deletion costs ``x_node`` plus ``x_edge`` per placed neighbour.
    Only the placed neighbours of the new node are walked, in source-position
    order, so substitution distances are added in that order and costs and
    tie-breaking are reproducible to the bit; the targets of the other
    mapped sources form one bitmask, and each of their edges towards the
    chosen target is an insertion. At the last level a child also pays for
    inserting every target node and edge left over, and its ``f`` is its
    ``g``.

    Under the bound (``view.depth_terms`` is not None), a child below the
    last level has ``f = g + (rest + value)``: the bound's deletions and
    insertions ``rest`` plus its assignment's ``value``. An unsettled child
    is keyed by ``g + (rest + floor)``, with :func:`_value`'s floor, and
    carries ``(rest, kept, i)`` for :func:`settle`: its cell rows are
    ``kept[i]``, where ``kept`` is the list this expansion puts in
    ``view.kept`` and the next one empties. The step itself never calls the
    solver. The clipped cells of every unplaced row over the unused targets
    are built once per expansion by :func:`_cells`, and the deletion child
    reads them as they are. A child that maps the new node onto target v
    differs from them only in the columns of v's unused neighbours, whose
    degree drops by one and where the rows linked to the new node gain the
    mapped edge pair: it copies each cell row, rebuilds those columns with
    :func:`_cells`'s expression and operands, and drops v's column, so every
    cell is the float a full rebuild gives. Its rows are copies only where
    linked, updated in those same columns (the used columns are never read
    again). The rows' degrees and terms and the deletion cost of the
    unplaced sources come from ``view.depth_terms``, the unused targets'
    degrees from ``a2.masks``.
    """
    _, negd, mapping, g, used, rows, _ = entry
    bound = view.depth_terms is not None
    depth = -negd
    a1, a2 = view.a1, view.a2
    kind_row = a1.kind[depth]
    val_row = a1.val[depth]
    kind2 = a2.kind
    val2 = a2.val
    node_cost = view.node_cost[depth]
    x_node, x_edge, y_edge = cm.x_node, cm.x_edge, cm.y_edge

    live = []  # (edge kind, edge value, target) per mapped placed neighbour
    dead = 0   # edges towards deleted placed neighbours
    near = 0   # the targets of the mapped placed neighbours
    for i in a1.adj[depth]:
        if i >= depth:
            break
        w = mapping[i]
        if w >= 0:
            live.append((kind_row[i], val_row[i], w))
            near |= 1 << w
        else:
            dead += 1
    # the targets of the mapped placed sources that are not neighbours: each
    # of their edges towards a child's target is an insertion
    far = used ^ near
    child_depth = negd - 1
    n1, n2 = view.n1, view.n2
    final = depth + 1 == n1
    masks = a2.masks

    if final or bound:
        # completing the mapping here inserts the unused targets and every
        # target edge not between two used ones (each of those is seen from
        # both ends), which is also the bound's insertion part; a child that
        # uses target v also closes v's edges towards used targets
        unused = n2 - used.bit_count()
        unpaid = len(a2.edges) - sum((masks[j] & used).bit_count()
                                     for j in range(n2) if used >> j & 1) // 2
        completion = x_node * unused + x_edge * unpaid

    if bound and not final:
        adj2 = a2.adj
        rows = rows[1:]
        linked, degs, xrs, h_del = view.depth_terms[depth]
        two_x_edge = x_edge + x_edge
        two_x = x_node + x_node
        # the bound's columns: (unused target, its degree towards unused
        # targets, x_edge * that degree + 2 * x_node); and per unused target
        # j, the column (its place, j, and its degree and term one lower)
        # that a child mapped onto one of j's neighbours rebuilds
        free = []
        lowered = [None] * n2
        for j in range(n2):
            if not used >> j & 1:
                dc = (masks[j] & ~used).bit_count()
                lowered[j] = (len(free), j, dc - 1, x_edge * (dc - 1) + two_x)
                free.append((j, dc, x_edge * dc + two_x))
        base = [_cells(row, xr, dr, free) for row, dr, xr in zip(rows, degs, xrs)]
        deleted = _minima(base)[1:]  # the deletion child's assignment
        # the cells of this expansion's children that wait on the solver,
        # kept for settle() until the next expansion
        view.kept.clear()
        kept = view.kept = []

    p = -1  # v's place among the unused targets
    for v in range(n2 + 1):
        if v == n2:
            slot = EPS_SLOT
            child_used = used
            cost = x_node + x_edge * (len(live) + dead)  # one per placed neighbour
        else:
            bit = 1 << v
            if used & bit:
                continue
            p += 1
            slot = v
            child_used = used | bit
            kinds = kind2[v]
            vals = val2[v]
            sub = 0.0
            indel = dead + (masks[v] & far).bit_count()
            for k1, x1, w in live:
                k2 = kinds[w]
                if k2:
                    if k1 != k2:
                        sub += 1.0
                    elif k1 == 2:
                        sub += abs(vals[w] - x1)
                else:
                    indel += 1
            cost = node_cost[v] + y_edge * sub + x_edge * indel
        child_g = g + cost
        if final:
            if v == n2:
                child_g += completion
            else:
                child_g += (x_node * (unused - 1)
                            + x_edge * (unpaid - (masks[v] & used).bit_count()))
        elif bound:
            child_rows = rows
            if v == n2:
                rest = h_del + completion
                neg, mins, wants = deleted
            else:
                # v's unused neighbours: their degree drops by one, and a
                # mapped edge pair replaces the deletion and the insertion
                # that the row and column terms charge for it
                patch = [col for j in adj2[v] if (col := lowered[j]) is not None]
                if linked and patch:
                    child_rows = list(rows)
                    for k, k1, x1 in linked:
                        row = rows[k][:]
                        for _, j, _, _ in patch:
                            k2 = kinds[j]
                            if k1 != k2:
                                row[j] += y_edge - two_x_edge
                            elif k1 == 2:
                                row[j] += y_edge * abs(vals[j] - x1) - two_x_edge
                            else:
                                row[j] -= two_x_edge
                        child_rows[k] = row
                # each row's cells with those columns rebuilt, by the
                # expression of _cells, and v's column dropped
                neg, mins, wants = [], [], []
                for cells, row, dr, xr in zip(base, child_rows, degs, xrs):
                    cells = cells[:]
                    for s, j, dc, xc in patch:
                        c = row[j] - (xr if dr < dc else xc)
                        cells[s] = c if c < 0.0 else 0.0
                    del cells[p]
                    if cells and (m := min(cells)) < 0.0:
                        neg.append(cells)
                        mins.append(m)
                        wants.append(cells.index(m))
                rest = h_del + (completion - x_node - x_edge * (masks[v] & used).bit_count())
            low, exact = _value(neg, mins, wants)
            if exact:
                unsolved = None
            else:
                # keyed by its floor; settle() solves it
                unsolved = (rest, kept, len(kept))
                kept.append(neg)
            children.append((child_g + (rest + low), child_depth, mapping + (slot,), child_g,
                             child_used, child_rows, unsolved))
            continue
        children.append((child_g, child_depth, mapping + (slot,), child_g, child_used,
                         None, None))


# ----------------------------------------------------------------------
# betweenness kernel (per-source BFS + dependency accumulation)
# ----------------------------------------------------------------------

def betweenness_counts(adj: tuple[tuple[int, ...], ...]) -> list[float]:
    """Unweighted betweenness counts; ``adj[v]`` lists v's neighbour
    positions in ascending order.

    Endpoints are excluded; the returned scores count each unordered pair
    once (the ordered-pair accumulation is halved at the end).
    """
    n = len(adj)
    bc = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        delta = [0.0] * n
        dist[s] = 0
        sigma[s] = 1.0
        queue = [s]
        for v in queue:  # the queue grows while it is walked: BFS order
            dv1 = dist[v] + 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv1
                    queue.append(w)
                if dist[w] == dv1:
                    sigma[w] += sigma[v]
        # walk the BFS order backwards for the accumulation
        for w in reversed(queue):
            coeff = (1.0 + delta[w]) / sigma[w]
            dw1 = dist[w] - 1
            for v in adj[w]:
                if dist[v] == dw1:
                    delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    return [x * 0.5 for x in bc]


def backend_name() -> str:
    """Which build of the kernels runs; there is one, in plain Python."""
    return "python"


def warm_up() -> None:
    """Import ``scipy.optimize`` ahead of timing, so that the first bound
    that needs the assignment solver does not pay the import (most of a
    second). Both kernels are plain Python with nothing to compile."""
    _solver()
