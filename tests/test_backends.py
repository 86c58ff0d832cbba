"""Kernels: the search expansion step against a from-scratch pricing, the
assignment's certificates against scipy's matching, the search's settling
of deferred bounds, beam search's sorted open list against a pruned heap,
and the betweenness loop against a path-enumeration oracle."""

import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cged import CostModel, astar_ged, beam_ged, kernels
from cged.graph import Graph, Point2D
from cged.ged import Heuristic, _search
from cged.kernels import _PairView
from helpers import (
    betweenness_by_path_enumeration,
    heap_beam_ged,
    padded_bipartite_bound,
    random_connected_graph,
    random_graph,
)


@st.composite
def graph_pairs(draw, max_nodes=5):
    """Two small graphs with coordinate or symbolic labels, unlabeled or
    fractional numeric edges, and possibly sparse node ids."""
    symbolic = draw(st.booleans())
    graphs = []
    for _ in range(2):
        g = Graph()
        for _ in range(draw(st.integers(0, max_nodes))):
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


def settled(view, cm, child):
    """A child keyed by its ``f``: settled by :func:`kernels.settle` as the
    search settles it, if its bound waits on the solver."""
    if child[6] is not None:
        return kernels.settle(view, cm, child)
    return child


def expand(view, cm, entry) -> list:
    """The children of one entry, each settled right after the expansion."""
    heap = []
    kernels.extend_costs(view, cm, heap, entry)
    return [settled(view, cm, child) for child in heap]


def descend(view, cm, mapping):
    """The open-list entry of a prefix, reached from the root through the
    expansion step, so that it carries what the step derived on the way."""
    entry = view.root()
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
    heap = expand(view, cm, entry)

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
    heap = expand(view, cm, descend(view, cm, random_prefix(data, view, view.n1 - 2)))
    for f, _, child, child_g, *_ in heap:
        assert child_g <= f + 1e-12
        assert f <= cheapest_completion(g1, g2, cm, child) + 1e-9


def bound_from_scratch(view, cm, child) -> float:
    """The bound of a child below the last level, rebuilt without the
    expansion step's patched cells: the unplaced sources' degrees and
    deletion cost and the unused targets' terms counted afresh, then the
    child's own rows through :func:`kernels._reduced` and
    :func:`kernels._value` (and :func:`kernels._solved` where no
    certificate answers), in the operand order of a step that built every
    child's cells anew."""
    _, negd, mapping, _, child_used, rows, _ = child
    a1, a2, n1, n2 = view.a1, view.a2, view.n1, view.n2
    x_node, x_edge = cm.x_node, cm.x_edge
    d = -negd
    v = mapping[-1]
    used = child_used & ~(1 << v) if v >= 0 else child_used
    rest = range(d, n1)
    degs = [(a1.masks[i] >> d).bit_count() for i in rest]
    reaching = sum(a1.masks[i].bit_count() for i in rest) - sum(degs) // 2
    h_del = x_node * len(rest) + x_edge * reaching
    masks = a2.masks
    unused = n2 - used.bit_count()
    unpaid = len(a2.edges) - sum((masks[j] & used).bit_count()
                                 for j in range(n2) if used >> j & 1) // 2
    completion = x_node * unused + x_edge * unpaid
    two_x = x_node + x_node
    free = [(j, dc, x_edge * dc + two_x)
            for j in range(n2) if not used >> j & 1 for dc in [(masks[j] & ~used).bit_count()]]
    if v < 0:
        terms, ins = free, completion
    else:
        terms = [(j, dc - 1, x_edge * (dc - 1) + two_x) if masks[v] >> j & 1 else (j, dc, xc)
                 for j, dc, xc in free if j != v]
        ins = completion - x_node - x_edge * (masks[v] & used).bit_count()
    _, neg, mins, wants = kernels._reduced(rows, degs, terms, x_node, x_edge)
    value, exact = kernels._value(neg, mins, wants)
    return h_del + ins + (value if exact else kernels._solved(neg))


@settings(max_examples=300, deadline=None)
@given(pair=graph_pairs(8), data=st.data(),
       cm=st.builds(CostModel, *[st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 3.0))] * 4))
def test_every_childs_bound_is_the_one_built_from_scratch_to_the_bit(pair, data, cm):
    g1, g2 = pair
    assume(g1.order > 1)
    view = _PairView(g1, g2, cm, Heuristic.BIPARTITE)
    heap = []
    kernels.extend_costs(view, cm, heap, descend(view, cm, random_prefix(data, view, view.n1 - 2)))
    # settled from the cells the expansion kept, and again from cells built
    # anew once the next expansion has dropped them
    fresh = [settled(view, cm, child) for child in heap]
    kernels.extend_costs(view, cm, [], view.root())
    rebuilt = [settled(view, cm, child) for child in heap]
    for child, first, second in zip(heap, fresh, rebuilt):
        want = child[3] + bound_from_scratch(view, cm, child)
        assert first[0] == want
        assert second[0] == want


@settings(max_examples=300, deadline=None)
@given(pair=graph_pairs(8), data=st.data(),
       cm=st.builds(CostModel, *[st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 3.0))] * 4))
def test_a_childs_key_is_at_most_its_settled_f_and_equal_when_nothing_waits(pair, data, cm):
    g1, g2 = pair
    assume(g1.order > 0)
    view = _PairView(g1, g2, cm, Heuristic.BIPARTITE)
    heap = []
    kernels.extend_costs(view, cm, heap, descend(view, cm, random_prefix(data, view, view.n1 - 1)))
    for child in heap:
        done = settled(view, cm, child)
        assert done[1:6] == child[1:6]
        assert done[6] is None
        if child[6] is None:
            assert child[0].hex() == done[0].hex()
        else:
            assert child[0] <= done[0]


def symbolic_tree(rng, n: int) -> Graph:
    """A tree of symbolic atoms with numeric bonds: tied labels make rows
    want one column, so its searches need the solver."""
    g = Graph()
    for _ in range(n):
        g.add_node(rng.choice("CCNO"))
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, float(rng.choice((1, 2))))
    return g


def test_a_search_reaches_the_solver_only_while_settling(monkeypatch):
    """Every scipy call of a search is made inside :func:`kernels.settle`,
    one per settled entry, for exact A* and for beam under the bound."""
    matching, settle = kernels._matching, kernels.settle
    calls = {"solver": 0, "settled": 0, "inside": False}

    def counted_matching(matrix):
        assert calls["inside"], "the solver was called outside settle()"
        calls["solver"] += 1
        return matching(matrix)

    def counted_settle(view, cm, entry):
        calls["settled"] += 1
        calls["inside"] = True
        try:
            return settle(view, cm, entry)
        finally:
            calls["inside"] = False

    monkeypatch.setattr(kernels, "_matching", counted_matching)
    monkeypatch.setattr(kernels, "settle", counted_settle)
    rng = random.Random(149)
    for k in range(12):
        if k % 2:
            g1, g2 = (random_connected_graph(rng, rng.randint(6, 8)) for _ in range(2))
        else:
            g1, g2 = (symbolic_tree(rng, rng.randint(6, 8)) for _ in range(2))
        cm = CostModel(1.0, 1.0, 1.0, 0.5 * (k % 3))
        astar_ged(g1, g2, cm)
        _search(g1, g2, cm, Heuristic.BIPARTITE, 1 + k % 3)
    assert calls["settled"] > 0
    assert calls["solver"] == calls["settled"]


@pytest.mark.parametrize("run", [
    lambda g1, g2: astar_ged(g1, g2, heuristic=Heuristic.ZERO),
    lambda g1, g2: astar_ged(g1, g2, heuristic=Heuristic.BIPARTITE),
    lambda g1, g2: beam_ged(g1, g2, w=3),
], ids=["astar-zero", "astar-bipartite", "beam"])
def test_every_open_list_entry_has_seven_fields(monkeypatch, run):
    """Every entry a search expands, and every child the step appends or
    :func:`kernels.settle` returns, is ``(f, -depth, mapping, g, used, rows,
    unsolved)``, with or without the bound."""
    extend, settle = kernels.extend_costs, kernels.settle
    seen = []

    def recorded_extend(view, cm, children, entry):
        extend(view, cm, children, entry)
        seen.append(entry)
        seen.extend(children)

    def recorded_settle(view, cm, entry):
        seen.append(settle(view, cm, entry))
        return seen[-1]

    monkeypatch.setattr(kernels, "extend_costs", recorded_extend)
    monkeypatch.setattr(kernels, "settle", recorded_settle)
    rng = random.Random(101)
    for _ in range(6):
        g1, g2 = (random_connected_graph(rng, rng.randint(4, 6)) for _ in range(2))
        run(g1, g2)
    assert seen and {len(entry) for entry in seen} == {7}


def as_kernel_input(matrix):
    """A reduced matrix as :func:`kernels.assignment` takes it: with no
    deletion or insertion cost, cell (i, j) is ``min(matrix[i][j], 0)``."""
    return matrix, [0] * len(matrix), [0] * len(matrix[0]), 0.0, 0.0


def certified_value(matrix) -> float:
    """The expansion step's value of a reduced matrix (see
    :func:`as_kernel_input`)."""
    terms = [(j, 0, 0.0) for j in range(len(matrix[0]))]
    _, neg, mins, wants = kernels._reduced(matrix, [0] * len(matrix), terms, 0.0, 0.0)
    value, exact = kernels._value(neg, mins, wants)
    return value if exact else kernels._solved(neg)


def scipy_value(matrix) -> float:
    """The value of scipy's matching of the clipped matrix, its negative
    cells summed in row order."""
    from scipy.optimize import linear_sum_assignment

    clipped = [[min(c, 0.0) for c in row] for row in matrix]
    total = 0.0
    for i, j in zip(*linear_sum_assignment(clipped)):
        if clipped[i][j] < 0.0:
            total += clipped[i][j]
    return total


@st.composite
def reduced_matrices(draw):
    """1-6 x 1-6 cells, each from {0.0, -0.5, -1.0, -2.0} (ties and zeros)
    or a negative float."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from((0.0, -0.5, -1.0, -2.0)),
                     st.floats(max_value=0.0, exclude_max=True, allow_infinity=False,
                               allow_nan=False, allow_subnormal=False))
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=1000, deadline=None)
@given(matrix=reduced_matrices())
def test_certificates_give_scipys_value_to_the_bit(matrix):
    want = scipy_value(matrix)
    assert certified_value(matrix).hex() == want.hex()
    priced = 0.0
    for k, j in kernels.assignment(*as_kernel_input(matrix)):
        priced += matrix[k][j]
    assert priced.hex() == want.hex()


@pytest.mark.parametrize("matrix, want", [
    # no row with a negative cell
    ([[0.0, 1.0], [2.0, 0.0]], 0.0),
    # one row
    ([[-1.0, -2.0, 0.0]], -2.0),
    # every row's cheapest cell in its own column
    ([[-1.0, -0.5, 0.0], [0.0, -2.0, -0.5], [-0.5, 0.0, -3.0]], -6.0),
    # one column, once the row without a negative cell is dropped
    ([[-1.0], [-3.0], [0.5]], -3.0),
])
def test_certified_matrices_never_reach_scipy(matrix, want, monkeypatch):
    assert scipy_value(matrix) == want

    def refuse(matrix):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(kernels, "_matching", refuse)
    assert certified_value(matrix) == want


def outcome(result) -> tuple:
    """A search result to the bit: cost, operations and expansion count."""
    ops = [(op.kind, op.source, op.target, float(op.cost).hex()) for op in result.path.operations]
    return float(result.cost).hex(), ops, result.expanded_nodes


@settings(max_examples=300, deadline=None)
@given(pair=graph_pairs(), cm=st.builds(CostModel, *[st.floats(0.0, 3.0)] * 4),
       w=st.sampled_from((1, 2, 3, 10, 10**6)))
def test_sorted_beam_pops_what_the_pruned_heap_pops(pair, cm, w):
    g1, g2 = pair
    assert outcome(beam_ged(g1, g2, cm, w)) == outcome(heap_beam_ged(g1, g2, cm, w))


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
