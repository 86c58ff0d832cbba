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
it pushes; :func:`assignment` solves that bound's node assignment, which
:func:`cged.ged.bipartite_lower_bound` shares.

Conventions shared with :mod:`cged.ged`:

* edge kinds and values are those of :class:`cged.graph.GraphArrays`;
* a mapping is a tuple of target positions, one per placed source node in
  position order, with -1 marking a deleted source node;
* a used-target set is an int bitmask over target positions;
* an open-list entry is ``(f, -depth, mapping, g, used)``, followed under
  the bipartite bound by the rows of the bound's assignment matrix.
  Mappings are unique, so tuple comparison never reaches ``g`` or later.
"""

from __future__ import annotations

from heapq import heappush

EPS_SLOT = -1  # mapping value for "source node deleted"


# ----------------------------------------------------------------------
# edit-search expansion step
# ----------------------------------------------------------------------

def completion_cost(view, used: int, cm) -> float:
    """Insert every unused target node, plus every target edge not yet charged.

    An edge is charged during the search only once both endpoints are used.
    """
    unused = view.n2 - used.bit_count()
    covered = 0
    for mask in view.e2_masks:
        if used & mask == mask:
            covered += 1
    return cm.x_node * unused + cm.x_edge * (len(view.e2_masks) - covered)


def assignment(rows, deg_r, cols, x_node: float, x_edge: float) -> tuple[float, list]:
    """The assignment part of the bipartite bound, on the reduced matrix.

    ``rows`` holds one list per unplaced source node, indexed by target
    position; ``deg_r`` gives each such node's edges towards unplaced source
    nodes, and ``cols`` one ``(target position, edges towards unused
    targets)`` pair per unused target. Cell (i, j) is
    ``min(rows[i][j] - x_edge * min(deg_i, deg_j) - 2 * x_node, 0)``: the
    substitution cost of the (r + c)-square epsilon-padded assignment less
    i's deletion and j's insertion cost (see :class:`cged.ged._BoundTables`),
    clipped at 0. Returns the minimum-cost assignment's value (at most 0)
    and its negative cells as (row index, target position) pairs.

    A matching gains only from negative cells, and a row or column it
    leaves unmatched keeps its deletion or insertion, so the padded optimum
    is the sum of all deletions and insertions plus this value, exactly.
    Rows without a negative cell are dropped and a single row or column is
    solved directly; ``scipy.optimize`` (slow to import) is loaded only for
    the rest.
    """
    two_x = x_node + x_node
    terms = [(j, dc, x_edge * dc + two_x) for j, dc in cols]
    neg = []
    for k, (row, dr) in enumerate(zip(rows, deg_r)):
        xr = x_edge * dr + two_x
        cells = [c if (c := row[j] - (xr if dr < dc else xc)) < 0.0 else 0.0
                 for j, dc, xc in terms]
        if cells and min(cells) < 0.0:
            neg.append((k, cells))
    if not neg:
        return 0.0, []
    if len(neg) == 1 or len(terms) == 1:
        best, k, at = min((min(cells), k, cells) for k, cells in neg)
        return best, [(k, terms[at.index(best)][0])]
    from scipy.optimize import linear_sum_assignment

    picked_rows, picked_cols = linear_sum_assignment([cells for _, cells in neg])
    total, matched = 0.0, []
    for i, j in zip(picked_rows.tolist(), picked_cols.tolist()):
        k, cells = neg[i]
        if cells[j] < 0.0:
            total += cells[j]
            matched.append((k, terms[j][0]))
    return total, matched


def extend_costs(view, cm, heap: list, entry: tuple) -> None:
    """Expand one open-list entry: price every child and push it onto ``heap``.

    Source node number ``depth`` (the length of the entry's mapping) is
    placed on every unused target position in ascending order and, last,
    deleted. A child's ``g`` adds the node operation and the edges it closes
    towards the already-placed source nodes. A target slot costs

        y_node * node_dist + y_edge * (sum of edge-substitution distances)
        + x_edge * (edge insertions and deletions)

    and a deletion costs ``x_node`` plus ``x_edge`` per placed neighbour.
    Substitution distances are added in source-position order, so costs
    and tie-breaking are reproducible to the bit. At the last level a child
    also pays for inserting every target node and edge left over, and its
    ``f`` is its ``g``.

    Below the last level ``f`` is ``g`` alone, unless the view carries the
    bipartite bound's tables (``view.bound``). Then ``f`` is ``g + h``, with
    ``h`` the bound of what is left (see :class:`cged.ged._BoundTables`),
    and entries carry the bound's rows as a sixth element. A child copies
    only the rows of its newly placed node's unplaced neighbours, and in
    them updates only the cells of the chosen target's neighbours.

    ``view`` provides n1, n2, kind1/val1/kind2/val2 (the ``kind`` and
    ``val`` rows of both graphs' forms), node_dist, e2_masks (one two-bit
    mask per target edge) and bound (None, or the tables described in
    :class:`cged.ged._BoundTables`).
    """
    bound = view.bound
    if bound is None:
        _, negd, mapping, g, used = entry
    else:
        _, negd, mapping, g, used, rows = entry
    depth = -negd
    kind_row = view.kind1[depth]
    val_row = view.val1[depth]
    kind2 = view.kind2
    val2 = view.val2
    node_dist = view.node_dist[depth]
    x_node, y_node, x_edge, y_edge = cm.x_node, cm.y_node, cm.x_edge, cm.y_edge

    live = []  # (edge kind, edge value, target) per mapped placed source node
    dead = 0   # edges towards deleted placed source nodes
    neighbours = 0  # edges towards any placed source node
    for i, w in enumerate(mapping):
        k1 = kind_row[i]
        if w >= 0:
            live.append((k1, val_row[i], w))
        elif k1:
            dead += 1
        if k1:
            neighbours += 1
    child_depth = negd - 1
    final = depth + 1 == view.n1
    n2 = view.n2

    if bound is not None and not final:
        masks, adj2 = bound.masks, bound.adj2
        rows = rows[1:]  # the rows of the sources placed after this one
        linked = [(k, kind_row[i], val_row[i])
                  for k, i in enumerate(range(depth + 1, view.n1)) if kind_row[i]]
        free = [(j, (masks[j] & ~used).bit_count())
                for j in range(n2) if not used >> j & 1]
        h_del = bound.del_sums[depth + 1]
        # inserting the unused targets with their unpaid edges is exactly
        # what completing the mapping here would add
        h_ins = completion_cost(view, used, cm)
        deg_r = bound.deg_r[depth + 1]
        two_x_edge = x_edge + x_edge

    for v in range(n2 + 1):
        if v == n2:
            slot = EPS_SLOT
            child_used = used
            cost = x_node + x_edge * neighbours
        else:
            bit = 1 << v
            if used & bit:
                continue
            slot = v
            child_used = used | bit
            kinds = kind2[v]
            vals = val2[v]
            sub = 0.0
            indel = dead
            for k1, x1, w in live:
                k2 = kinds[w]
                if k1 and k2:
                    if k1 != k2:
                        sub += 1.0
                    elif k1 == 2:
                        sub += abs(vals[w] - x1)
                elif k1 or k2:
                    indel += 1
            cost = y_node * node_dist[v] + y_edge * sub + x_edge * indel
        child_g = g + cost
        if final:
            child_g += completion_cost(view, child_used, cm)
        elif bound is not None:
            if v == n2:
                child_rows, cols, ins = rows, free, h_ins
            else:
                mask = masks[v]
                child_rows = rows
                if linked and mask:
                    # a mapped edge pair replaces the deletion and the insertion
                    # that the row and column terms charge for it
                    child_rows = list(rows)
                    for k, k1, x1 in linked:
                        row = rows[k][:]
                        for j in adj2[v]:
                            k2 = kinds[j]
                            if k1 != k2:
                                row[j] += y_edge - two_x_edge
                            elif k1 == 2:
                                row[j] += y_edge * abs(vals[j] - x1) - two_x_edge
                            else:
                                row[j] -= two_x_edge
                        child_rows[k] = row
                cols = [(j, dc - 1 if mask >> j & 1 else dc) for j, dc in free if j != v]
                ins = h_ins - x_node - x_edge * (mask & used).bit_count()
            h = h_del + ins + assignment(child_rows, deg_r, cols, x_node, x_edge)[0]
            heappush(heap, (child_g + h, child_depth, mapping + (slot,), child_g, child_used,
                            child_rows))
            continue
        heappush(heap, (child_g, child_depth, mapping + (slot,), child_g, child_used))


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
    that needs :func:`assignment`'s solver does not pay the import (most of
    a second). Both kernels are plain Python with nothing to compile."""
    import scipy.optimize
