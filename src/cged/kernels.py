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

Conventions shared with :mod:`cged.ged`:

* edge kinds and values are those of :class:`cged.graph.GraphArrays`;
* a mapping is a tuple of target positions, one per placed source node in
  position order, with -1 marking a deleted source node;
* a used-target set is an int bitmask over target positions;
* an open-list entry is ``(f, -depth, mapping, g, used)``. Mappings are
  unique, so tuple comparison never reaches ``g`` or ``used``.
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


def count_bound(view, depth: int, used: int, cm) -> float:
    """COUNT_BOUND: node and edge count differences of what is left to place."""
    r1 = view.n1 - depth
    r2 = view.n2 - used.bit_count()
    er1 = view.er1_suffix[depth]
    er2 = 0
    for mask in view.e2_masks:
        if not used & mask:
            er2 += 1
    return abs(r1 - r2) * cm.x_node + abs(er1 - er2) * cm.x_edge


def extend_costs(view, cm, heap: list, entry: tuple, use_count_bound: bool) -> None:
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
    also pays for inserting every target node and edge left over; below it,
    with ``use_count_bound``, its ``f`` adds :func:`count_bound`.

    ``view`` provides n1, n2, kind1/val1/kind2/val2 (the ``kind`` and
    ``val`` rows of both graphs' forms), node_dist, e2_masks (one two-bit
    mask per target edge) and er1_suffix.
    """
    _, negd, mapping, g, used = entry
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
            f = child_g
        elif use_count_bound:
            f = child_g + count_bound(view, depth + 1, child_used, cm)
        else:
            f = child_g
        heappush(heap, (f, child_depth, mapping + (slot,), child_g, child_used))


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
    """Kept for callers that warm the kernels before timing; a no-op,
    since both kernels are plain Python with nothing to compile."""
