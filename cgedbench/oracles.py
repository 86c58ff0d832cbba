"""Correctness oracles that share no code with cged's search or cost model.

* :func:`enumerate_ged` tries every injective partial node map between two
  graphs and prices each with its own rules. It checks the coordinate-
  labelled letter pairs, where networkx is not exact.
* :func:`networkx_ged` asks ``networkx.graph_edit_distance`` for the
  distance of a symbolic pair, with the same unit costs.
* :func:`verify_path` reprices a returned edit path from the two graphs and
  checks that it accounts for every node and edge of both exactly once.

All three price with unit insertion and deletion costs and unit
substitution weights, which is cged's default cost model.
"""

from __future__ import annotations

import math

import networkx as nx

from cged.graph import Graph, GraphError, Point2D


def node_cost(a, b) -> float:
    if isinstance(a, Point2D) and isinstance(b, Point2D):
        return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)
    if isinstance(a, str) and isinstance(b, str):
        return 0.0 if a == b else 1.0
    return 1.0


def edge_cost(a, b) -> float:
    if a is None and b is None:
        return 0.0
    if a is not None and b is not None:
        return abs(a - b)
    return 1.0


_NO_EDGE = object()


def _plain(g: Graph) -> tuple[list, dict]:
    """(labels by position, {(i, j): edge label} with i < j by position)."""
    ids = g.nodes()
    pos = {u: i for i, u in enumerate(ids)}
    labels = [g.node_label(u) for u in ids]
    edges = {}
    for u, v, label in g.edges():
        i, j = sorted((pos[u], pos[v]))
        edges[(i, j)] = label
    return labels, edges


def enumerate_ged(g1: Graph, g2: Graph) -> float:
    """Minimum cost over every injective partial map from g1's nodes into g2's.

    A depth-first walk places g1's nodes one by one, each onto a free node of
    g2 or nowhere (deleted). Edges between placed nodes are priced as soon as
    both ends are placed; at a complete map the unplaced g2 nodes and their
    edges are inserted. No branch is cut, so every map is priced.
    """
    labels1, edges1 = _plain(g1)
    labels2, edges2 = _plain(g2)
    n1, n2 = len(labels1), len(labels2)

    def e2(a, b):
        return edges2.get((a, b) if a < b else (b, a), _NO_EDGE)

    best = math.inf
    image = [-1] * n1
    used = [False] * n2

    def place(i: int, cost: float) -> None:
        nonlocal best
        if i == n1:
            total = cost + n2 - sum(used)
            total += sum(1 for (a, b) in edges2 if not (used[a] and used[b]))
            best = min(best, total)
            return
        for target in list(range(n2)) + [-1]:
            if target >= 0 and used[target]:
                continue
            step = 1.0 if target < 0 else node_cost(labels1[i], labels2[target])
            for k in range(i):
                had1 = (k, i) in edges1
                if target < 0 or image[k] < 0:
                    step += 1.0 if had1 else 0.0
                    continue
                lab2 = e2(image[k], target)
                if had1 and lab2 is not _NO_EDGE:
                    step += edge_cost(edges1[(k, i)], lab2)
                elif had1 or lab2 is not _NO_EDGE:
                    step += 1.0
            image[i] = target
            if target >= 0:
                used[target] = True
            place(i + 1, cost + step)
            if target >= 0:
                used[target] = False
            image[i] = -1

    place(0, 0.0)
    return best


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    for u, label in g.node_items():
        h.add_node(u, label=label)
    for u, v, label in g.edges():
        h.add_edge(u, v, label=label)
    return h


def networkx_ged(g1: Graph, g2: Graph, upper_bound: float) -> float | None:
    """networkx's edit distance at or under ``upper_bound``, or None if none is.

    Only for symbolic node labels: networkx 3.6 is not exact when one node
    substitution can cost more than a deletion plus an insertion, which
    coordinate labels allow. Passing the claimed distance as the bound lets
    networkx prune; a claimed cost that is too high shows as a lower return
    value, one that is too low as None.
    """
    return nx.graph_edit_distance(
        _to_nx(g1), _to_nx(g2),
        node_subst_cost=lambda a, b: node_cost(a["label"], b["label"]),
        node_del_cost=lambda a: 1.0,
        node_ins_cost=lambda a: 1.0,
        edge_subst_cost=lambda a, b: edge_cost(a["label"], b["label"]),
        edge_del_cost=lambda a: 1.0,
        edge_ins_cost=lambda a: 1.0,
        upper_bound=upper_bound,
    )


def _price(kind: str, s, t, g1: Graph, g2: Graph) -> float:
    """Unit-cost price of one operation; raises GraphError for a missing operand."""
    if kind == "node_sub":
        return node_cost(g1.node_label(s), g2.node_label(t))
    if kind == "node_del":
        g1.node_label(s)
        return 1.0
    if kind == "node_ins":
        g2.node_label(t)
        return 1.0
    if kind == "edge_sub":
        return edge_cost(g1.edge_label(*s), g2.edge_label(*t))
    if kind == "edge_del":
        g1.edge_label(*s)
        return 1.0
    if kind == "edge_ins":
        g2.edge_label(*t)
        return 1.0
    raise GraphError(f"unknown operation {kind!r}")


def verify_path(result, g1: Graph, g2: Graph, tol: float = 1e-9) -> list[str]:
    """Problems found in ``result.path``; an empty list means it is sound.

    Operations are read by their ``kind.value`` strings and repriced here,
    so the check does not lean on cged's cost code.
    """
    problems = []
    if not result.path.complete:
        problems.append("path not marked complete")
    covered = {"node_sub": ([], []), "node_del": ([], None), "node_ins": (None, []),
               "edge_sub": ([], []), "edge_del": ([], None), "edge_ins": (None, [])}
    image = {}
    total = 0.0
    for op in result.path.operations:
        kind, s, t = op.kind.value, op.source, op.target
        try:
            price = _price(kind, s, t, g1, g2)
        except GraphError as exc:
            problems.append(f"{kind} {s}->{t}: {exc}")
            continue
        if not abs(price - op.cost) <= tol:
            problems.append(f"{kind} {s}->{t} charged {op.cost}, reprices to {price}")
        total += price
        src, dst = covered[kind]
        if src is not None:
            src.append(tuple(s) if kind.startswith("edge") else s)
        if dst is not None:
            dst.append(tuple(t) if kind.startswith("edge") else t)
        if kind == "node_sub":
            image[s] = t
    nodes1 = covered["node_sub"][0] + covered["node_del"][0]
    nodes2 = covered["node_sub"][1] + covered["node_ins"][1]
    edges1 = covered["edge_sub"][0] + covered["edge_del"][0]
    edges2 = covered["edge_sub"][1] + covered["edge_ins"][1]
    if sorted(nodes1) != g1.nodes():
        problems.append("source nodes not covered exactly once")
    if sorted(nodes2) != g2.nodes():
        problems.append("target nodes not covered exactly once")
    if sorted(edges1) != [(u, v) for u, v, _ in g1.edges()]:
        problems.append("source edges not covered exactly once")
    if sorted(edges2) != [(u, v) for u, v, _ in g2.edges()]:
        problems.append("target edges not covered exactly once")
    for (u, v), f in zip(covered["edge_sub"][0], covered["edge_sub"][1]):
        if {image.get(u), image.get(v)} != set(f):
            problems.append(f"edge_sub {(u, v)}->{f} does not join mapped ends")
    if not math.isclose(total, result.cost, rel_tol=tol, abs_tol=tol):
        problems.append(f"path reprices to {total}, result says {result.cost}")
    return problems


def component_count(g: Graph) -> int:
    """Connected components by union-find over the edge list."""
    parent = {u: u for u in g.nodes()}

    def root(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v, _ in g.edges():
        parent[root(u)] = root(v)
    return len({root(u) for u in parent})
