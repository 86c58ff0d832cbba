"""Shared graph builders and independent oracles for the test suite.

Betweenness here is literal shortest-path enumeration, which shares nothing
with the library's kernel. Eigenvector centrality comes from a dense
symmetric eigensolver and PageRank from a direct linear solve: the same
algorithms the library uses, so ``tests/test_centrality.py`` also checks
both measures against networkx's iterative solvers. Expected values frozen
into tests were produced by these, never by the code under test.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np

from cged.graph import Graph, Point2D


# ----------------------------------------------------------------------
# deterministic builders
# ----------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    """P_n with coordinates (i, 0)."""
    g = Graph()
    for i in range(n):
        g.add_node(Point2D(float(i), 0.0))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    g = path_graph(n)
    if n >= 3:
        g.add_edge(n - 1, 0)
    return g


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}; the center gets id 0."""
    g = Graph()
    g.add_node(Point2D(0.0, 0.0))
    for i in range(leaves):
        g.add_node(Point2D(float(i + 1), 1.0))
        g.add_edge(0, i + 1)
    return g


def complete_graph(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_node(Point2D(float(i), 0.0))
    for u, v in itertools.combinations(range(n), 2):
        g.add_edge(u, v)
    return g


_SYMBOLS = ("C", "N", "O", "H", "S")


def random_graph(
    rng: random.Random,
    n_max: int = 4,
    n_min: int = 0,
    edge_p: float = 0.5,
    symbolic: bool = False,
    numeric_edge_p: float = 0.0,
) -> Graph:
    """Erdos-Renyi style graph; may be empty or disconnected."""
    n = rng.randint(n_min, n_max)
    g = Graph()
    for _ in range(n):
        if symbolic:
            g.add_node(rng.choice(_SYMBOLS))
        else:
            g.add_node(Point2D(round(rng.uniform(0.0, 3.0), 3),
                               round(rng.uniform(0.0, 3.0), 3)))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < edge_p:
            label = None
            if rng.random() < numeric_edge_p:
                label = float(rng.randint(1, 3))
            g.add_edge(u, v, label)
    return g


def random_connected_graph(rng: random.Random, n: int, extra_p: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges; always one component."""
    g = Graph()
    for i in range(n):
        g.add_node(Point2D(float(i), round(rng.uniform(0.0, 2.0), 3)))
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    for u, v in itertools.combinations(range(n), 2):
        if not g.has_edge(u, v) and rng.random() < extra_p:
            g.add_edge(u, v)
    return g


# ----------------------------------------------------------------------
# centrality oracles
# ----------------------------------------------------------------------

def _bfs_dist(g: Graph, s: int) -> dict[int, int]:
    dist = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _all_shortest_paths(g: Graph, s: int, t: int, dist: dict[int, int]) -> list[list[int]]:
    """Every shortest s-t path, by depth-first extension along the BFS levels."""
    target_len = dist[t]
    paths: list[list[int]] = []
    stack = [[s]]
    while stack:
        p = stack.pop()
        u = p[-1]
        if u == t:
            paths.append(p)
            continue
        if len(p) > target_len:
            continue
        for v in g.neighbors(u):
            if dist.get(v) == len(p):
                stack.append(p + [v])
    return paths


def betweenness_by_path_enumeration(g: Graph) -> dict[int, float]:
    """Literal definition: count interior appearances over all shortest paths."""
    score = {u: 0.0 for u in g.nodes()}
    for s, t in itertools.combinations(g.nodes(), 2):
        dist = _bfs_dist(g, s)
        if t not in dist:
            continue
        paths = _all_shortest_paths(g, s, t, dist)
        weight = 1.0 / len(paths)
        for p in paths:
            for v in p[1:-1]:
                score[v] += weight
    return score


def adjacency_matrix(g: Graph, ids: list[int]) -> np.ndarray:
    index = {u: i for i, u in enumerate(ids)}
    a = np.zeros((len(ids), len(ids)), np.float64)
    for u, v, _ in g.edges():
        if u in index and v in index:
            a[index[u], index[v]] = 1.0
            a[index[v], index[u]] = 1.0
    return a


def eigenvector_by_dense_solver(g: Graph) -> dict[int, float]:
    """Per-component principal eigenvector via numpy.linalg.eigh."""
    out: dict[int, float] = {}
    for block in g.connected_components():
        ids = sorted(block)
        if len(ids) == 1:
            out[ids[0]] = 1.0
            continue
        a = adjacency_matrix(g, ids)
        _, vecs = np.linalg.eigh(a)
        v = np.abs(vecs[:, -1])
        v /= np.linalg.norm(v)
        for i, u in enumerate(ids):
            out[u] = float(v[i])
    return out


def pagerank_by_linear_solve(g: Graph, alpha: float = 0.85,
                             gamma: float | None = None) -> dict[int, float]:
    """Exact fixed point of x = alpha * A (x / k) + gamma via a linear solve."""
    ids = g.nodes()
    n = len(ids)
    if n == 0:
        return {}
    if gamma is None:
        gamma = (1.0 - alpha) / n
    a = adjacency_matrix(g, ids)
    k = a.sum(axis=1)
    invk = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    m = alpha * (a * invk[None, :])
    x = np.linalg.solve(np.eye(n) - m, np.full(n, gamma))
    return {u: float(x[i]) for i, u in enumerate(ids)}


# ----------------------------------------------------------------------
# bipartite bound, from its definition
# ----------------------------------------------------------------------

def padded_bipartite_bound(g1: Graph, g2: Graph, cm, mapping=()) -> float:
    """The bipartite bound of the prefix ``mapping`` (one target position or
    -1 per leading source node), as the (r + c)-square epsilon-padded
    assignment over the unplaced source and unused target nodes, built
    through the plain graph API.

    Mapping i onto j costs its node substitution, every edge operation that
    placing i on j would close towards the placed nodes, and half of
    ``x_edge`` per unit of difference between their degrees among the
    unplaced / unused nodes. Deleting i costs ``x_node``, ``x_edge`` per
    placed neighbour and half of it per unplaced one; inserting j likewise
    over used and unused targets. The epsilon-to-epsilon block is free.
    """
    from scipy.optimize import linear_sum_assignment

    ids1, ids2 = g1.nodes(), g2.nodes()
    target = {ids1[i]: (ids2[w] if w >= 0 else None) for i, w in enumerate(mapping)}
    rows = ids1[len(mapping):]
    used = {v for v in target.values() if v is not None}
    cols = [v for v in ids2 if v not in used]
    half = 0.5 * cm.x_edge

    def degree(g, u, among):
        return sum(1 for w in g.neighbors(u) if w in among)

    def cross(u, v):
        cost = 0.0
        for p, t in target.items():
            e1 = g1.has_edge(u, p)
            e2 = t is not None and g2.has_edge(v, t)
            if e1 and e2:
                cost += cm.edge_sub_cost(g1.edge_label(u, p), g2.edge_label(v, t))
            elif e1 or e2:
                cost += cm.x_edge
        return cost

    r, c = len(rows), len(cols)
    matrix = np.zeros((r + c, r + c))
    matrix[:r, c:] = np.inf
    matrix[r:, :c] = np.inf
    for a, u in enumerate(rows):
        du = degree(g1, u, rows)
        for b, v in enumerate(cols):
            matrix[a, b] = (cm.node_sub_cost(g1.node_label(u), g2.node_label(v))
                            + cross(u, v) + half * abs(du - degree(g2, v, cols)))
        matrix[a, c + a] = cm.x_node + cm.x_edge * degree(g1, u, target) + half * du
    for b, v in enumerate(cols):
        matrix[r + b, b] = cm.x_node + cm.x_edge * degree(g2, v, used) + half * degree(g2, v, cols)
    picked_rows, picked_cols = linear_sum_assignment(matrix)
    return float(matrix[picked_rows, picked_cols].sum())


# ----------------------------------------------------------------------
# edit-path structural check
# ----------------------------------------------------------------------

def assert_path_consistent(result, g1: Graph, g2: Graph) -> None:
    """A complete edit path accounts for every node and induced edge once."""
    from cged.costs import OpKind

    path = result.path
    assert path.complete
    assert abs(path.total_cost - result.cost) < 1e-12

    src_nodes = []
    dst_nodes = []
    mapping = {}
    for op in path.operations:
        if op.kind is OpKind.NODE_SUB:
            src_nodes.append(op.source)
            dst_nodes.append(op.target)
            mapping[op.source] = op.target
        elif op.kind is OpKind.NODE_DEL:
            src_nodes.append(op.source)
        elif op.kind is OpKind.NODE_INS:
            dst_nodes.append(op.target)
    assert sorted(src_nodes) == g1.nodes()
    assert sorted(dst_nodes) == g2.nodes()

    covered_e1 = []
    covered_e2 = []
    for op in path.operations:
        if op.kind is OpKind.EDGE_SUB:
            covered_e1.append(op.source)
            covered_e2.append(op.target)
        elif op.kind is OpKind.EDGE_DEL:
            covered_e1.append(op.source)
        elif op.kind is OpKind.EDGE_INS:
            covered_e2.append(op.target)
    assert sorted(covered_e1) == [(u, v) for u, v, _ in g1.edges()]
    assert sorted(covered_e2) == [(u, v) for u, v, _ in g2.edges()]

    # substituted edges must join mapped endpoints
    for op in path.operations:
        if op.kind is OpKind.EDGE_SUB:
            u, v = op.source
            pair = {mapping.get(u), mapping.get(v)}
            assert pair == set(op.target)
