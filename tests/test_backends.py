"""Kernels: the search expansion step against a from-scratch pricing, and
the betweenness loop against a path-enumeration oracle."""

import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cged import CostModel, kernels
from cged.graph import Graph, Point2D
from cged.ged import Heuristic, _PairView
from helpers import betweenness_by_path_enumeration, padded_bipartite_bound, random_graph


@st.composite
def graph_pairs(draw):
    """Two small graphs with coordinate or symbolic labels, unlabeled or
    fractional numeric edges, and possibly sparse node ids."""
    symbolic = draw(st.booleans())
    graphs = []
    for _ in range(2):
        g = Graph()
        for _ in range(draw(st.integers(0, 5))):
            if symbolic:
                g.add_node(draw(st.sampled_from("CNOS")))
            else:
                g.add_node(Point2D(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))))
        ids = g.nodes()
        for i, u in enumerate(ids):
            for v in ids[i + 1:]:
                if draw(st.booleans()):
                    label = draw(st.one_of(st.none(), st.floats(0.0, 4.0)))
                    g.add_edge(u, v, label)
        if g.order > 2 and draw(st.booleans()):
            g.delete_node(draw(st.sampled_from(g.nodes())))
        graphs.append(g)
    return graphs


def price_from_scratch(g1: Graph, g2: Graph, cm: CostModel, mapping) -> float:
    """Cost of a partial mapping of g1's first len(mapping) nodes, priced
    through the Graph API; a complete mapping also pays for every target
    node and edge it leaves uncovered."""
    ids1, ids2 = g1.nodes(), g2.nodes()
    target = {ids1[i]: (ids2[w] if w >= 0 else None) for i, w in enumerate(mapping)}
    cost = 0.0
    for u, v in target.items():
        cost += cm.x_node if v is None else cm.node_sub_cost(g1.node_label(u), g2.node_label(v))
    consumed = set()
    for u, v, label in g1.edges():
        if u in target and v in target:
            a, b = target[u], target[v]
            if a is not None and b is not None and g2.has_edge(a, b):
                consumed.add((min(a, b), max(a, b)))
                cost += cm.edge_sub_cost(label, g2.edge_label(a, b))
            else:
                cost += cm.x_edge
    used = {v for v in target.values() if v is not None}
    complete = len(mapping) == len(ids1)
    for a, b, _ in g2.edges():
        if (a, b) in consumed:
            continue
        if complete or (a in used and b in used):
            cost += cm.x_edge
    if complete:
        cost += cm.x_node * (len(ids2) - len(used))
    return cost


def descend(view, cm, mapping):
    """The open-list entry of a prefix, reached from the root through the
    expansion step, so that it carries what the step derived on the way."""
    entry = view.root(cm)
    for depth in range(len(mapping)):
        heap = []
        kernels.extend_costs(view, cm, heap, entry)
        entry = next(child for child in heap if child[2] == mapping[:depth + 1])
    return entry


def random_prefix(data, view, longest):
    mapping = []
    for _ in range(data.draw(st.integers(0, longest))):
        free = [w for w in range(view.n2) if w not in mapping]
        mapping.append(data.draw(st.sampled_from(free + [kernels.EPS_SLOT])))
    return tuple(mapping)


def cheapest_completion(g1, g2, cm, mapping) -> float:
    """Enumerate every completion of a prefix and price it from scratch."""
    n1, n2 = g1.order, g2.order
    if len(mapping) == n1:
        return price_from_scratch(g1, g2, cm, mapping)
    free = [w for w in range(n2) if w not in mapping]
    return min(cheapest_completion(g1, g2, cm, mapping + (w,))
               for w in free + [kernels.EPS_SLOT])


@settings(max_examples=300, deadline=None)
@given(pair=graph_pairs(), data=st.data(),
       cm=st.builds(CostModel, *[st.floats(0.0, 3.0)] * 4),
       heuristic=st.sampled_from(Heuristic))
def test_every_child_prices_like_a_fresh_graph_walk(pair, data, cm, heuristic):
    g1, g2 = pair
    assume(g1.order > 0)
    view = _PairView(g1, g2, cm, heuristic)
    mapping = random_prefix(data, view, view.n1 - 1)
    depth = len(mapping)
    used = sum(1 << w for w in mapping if w >= 0)
    entry = descend(view, cm, mapping)
    assert entry[3] == pytest.approx(price_from_scratch(g1, g2, cm, mapping), abs=1e-9)
    assert entry[4] == used
    heap = []
    kernels.extend_costs(view, cm, heap, entry)

    free = [w for w in range(view.n2) if not used >> w & 1]
    assert sorted(child[2] for child in heap) == sorted(mapping + (w,) for w in
                                                        free + [kernels.EPS_SLOT])
    for f, negd, child, child_g, child_used, *_ in heap:
        assert negd == -(depth + 1)
        assert child_used == sum(1 << w for w in child if w >= 0)
        assert child_g == pytest.approx(price_from_scratch(g1, g2, cm, child), abs=1e-9)
        h = f - child_g
        if heuristic is Heuristic.BIPARTITE and depth + 1 < view.n1:
            # the incremental rows on the reduced matrix equal the padded form
            assert h == pytest.approx(padded_bipartite_bound(g1, g2, cm, child), abs=1e-9)
        else:
            assert h == 0.0


@settings(max_examples=200, deadline=None)
@given(pair=graph_pairs(), data=st.data(),
       cm=st.builds(CostModel, *[st.floats(0.0, 3.0)] * 4))
def test_bipartite_children_never_overestimate_their_cheapest_completion(pair, data, cm):
    g1, g2 = pair
    assume(g1.order > 1)
    view = _PairView(g1, g2, cm, Heuristic.BIPARTITE)
    heap = []
    kernels.extend_costs(view, cm, heap, descend(view, cm, random_prefix(data, view, view.n1 - 2)))
    for f, _, child, child_g, *_ in heap:
        assert child_g <= f + 1e-12
        assert f <= cheapest_completion(g1, g2, cm, child) + 1e-9


def test_betweenness_kernel_matches_the_oracle():
    rng = random.Random(77)
    for _ in range(50):
        g = random_graph(rng, n_max=8, edge_p=0.45)
        ids = g.nodes()
        adj = [[ids.index(v) for v in g.neighbors(u)] for u in ids]
        got = kernels.betweenness_counts(adj)
        assert isinstance(got, list)
        want = betweenness_by_path_enumeration(g)
        assert got == pytest.approx([want[u] for u in ids], abs=1e-9)


def test_backend_name_consistency():
    assert kernels.backend_name() == "python"


def test_warm_up_is_idempotent():
    kernels.warm_up()
    kernels.warm_up()
    assert "scipy.optimize" in sys.modules
