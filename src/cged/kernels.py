"""Hot inner loops: the search expansion step and the betweenness kernel.

Two inner loops dominate the toolkit's runtime: the expansion step of the
edit-distance tree search (called once per open-list pop) and the
per-source accumulation of betweenness centrality.

Both are plain Python and read the tuple rows of
:class:`cged.graph.GraphArrays`: :func:`extend_costs` through the pair view
that :mod:`cged.ged` assembles once per search from both graphs' forms,
:func:`betweenness_counts` through the neighbour rows ``adj``. The graphs
they see are small (letters and molecules of a few to a few dozen nodes),
where Python sequences and int bitmasks beat numpy's per-call overhead.
The expansion step also prices exact A*'s bipartite bound for every child
it appends, and reads only the value of the bound's node assignment. It
builds the bound's clipped cells once per expansion, and each child
rebuilds only the columns it changes (see :func:`extend_costs`). Three
exact certificates give that value without a solver: no row with a
negative cell, one row or one column, and every row's cheapest cell in a
column of its own (see :func:`_value`). Each returns the float that
scipy's matching gives when summed in row order. Where two or more rows
want one column, the step keys the child by a floor of that value
instead, and :func:`settle` calls scipy for it when the search settles
it: exact A* once the child reaches the top of its open list, beam before
inserting it. Costs, paths and expansion counts are those of solving
every assignment at once. ``scipy.optimize`` is imported once, on the
first assignment that needs it (see :func:`_solver`).
:func:`assignment` returns the matching itself, for
:func:`cged.ged.bipartite_lower_bound`, from the same cell builder and
solver.

Conventions shared with :mod:`cged.ged`:

* a pair view (``cged.ged._PairView``) has seven fields: the two graphs'
  forms ``a1`` and ``a2``, their orders ``n1`` and ``n2``, the node label
  costs ``node_cost`` (also the bipartite bound's empty-prefix rows), the
  bound's per-depth terms ``depth_terms`` (None without the bound) and
  ``kept``, the cell rows of the last expansion's unsettled children;
  kinds, values, edges and masks are read from the forms themselves;
* a mapping is a tuple of target positions, one per placed source node in
  position order, with -1 marking a deleted source node;
* a used-target set is an int bitmask over target positions;
* every open-list entry is ``(f, -depth, mapping, g, used, rows,
  unsolved)``: ``rows`` holds the rows of the bipartite bound's assignment
  matrix and ``unsolved`` is None, or, on an unsettled entry, what
  :func:`settle` needs to solve its assignment; both are None without the
  bound and on a complete entry. An unsettled entry's first element is a
  floor of its ``f``, and :mod:`cged.ged` settles it before it expands or
  returns it. Mappings are unique, so tuple comparison never reaches
  ``g`` or later.
  The step appends children in no useful order; :mod:`cged.ged` orders
  them in its open list.
"""

from __future__ import annotations

import functools

EPS_SLOT = -1  # mapping value for "source node deleted"


# ----------------------------------------------------------------------
# edit-search expansion step
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
    """An open-list entry whose bound waits on the solver (see
    :func:`extend_costs`), keyed by its exact ``f``: ``g + (rest +
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
    i's deletion and j's insertion cost (see ``cged.ged._PairView``),
    clipped at 0. Returns the minimum-cost assignment's negative cells as
    (row index, target position) pairs in ascending row order.

    A matching gains only from negative cells, and a row or column it
    leaves unmatched keeps its deletion or insertion, so the padded optimum
    is the sum of all deletions and insertions plus the matched cells,
    exactly. Rows without a negative cell are dropped and a single row or
    column is solved directly; the rest go to scipy (imported once, on the
    first call that needs it), whose matching this returns:
    :func:`cged.ged.bipartite_lower_bound` prices the matched cells itself,
    so the matching must be the solver's. The expansion step needs only the
    value, which :func:`_value` gives from the same cells through three
    exact certificates; where two or more rows want one column, it leaves
    the solve to :func:`settle`.
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
    ``children``, unordered; the caller orders them.

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

    Every child has the seven fields of an open-list entry. Below the last
    level ``f`` is ``g`` alone and ``rows`` and ``unsolved`` are None,
    unless the view carries the bipartite bound's terms (``depth_terms``
    is not None). Then ``f`` is ``g + (rest + value)``: the bound of what
    is left (see ``cged.ged._PairView``), its deletions and insertions
    ``rest`` plus its assignment's ``value``. The child carries the bound's
    rows as ``rows``, and ``unsolved`` is None unless no certificate of
    :func:`_value` answers its assignment. Such a child is keyed by ``g +
    (rest + floor)`` instead, with :func:`_value`'s floor, and carries
    ``(rest, kept, i)`` for :func:`settle`, which gives it its ``f``: its
    cell rows are ``kept[i]``, where ``kept`` is the list this expansion
    puts in ``view.kept`` and the next one empties. The step itself never
    calls the solver. The clipped cells of every unplaced row over the
    unused targets are built once per expansion by :func:`_cells`, and the
    deletion child reads them as they are. A child that maps the new node
    onto target v differs from them only in the columns of v's unused
    neighbours, whose degree drops by one and where the rows linked to the
    new node gain the mapped edge pair: it copies each cell row, rebuilds
    those columns with :func:`_cells`'s expression and operands, and drops
    v's column, so every cell is the float a full rebuild gives. Its rows
    are copies only where linked, updated in those same columns (the used
    columns are never read again). The rows' degrees and terms and the
    deletion cost of the unplaced sources come from ``view.depth_terms``,
    the unused targets' degrees from ``a2.masks``.

    ``view`` provides ``a1`` and ``a2`` (both graphs'
    :class:`~cged.graph.GraphArrays`, whose ``kind``, ``val``, ``masks``,
    ``adj`` and ``edges`` the step reads), ``n1``, ``n2``, ``node_cost``,
    ``depth_terms`` and ``kept``.
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
