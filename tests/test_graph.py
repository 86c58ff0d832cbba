"""Graph structure, connectivity, cut-vertex behavior and the position-indexed form."""

import copy
import dataclasses
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cged import contraction, kernels
from cged.centrality import CentralityMeasure, compute_centrality
from cged.contraction import (
    k_degree_node_contraction,
    k_star_node_contraction,
    t_centrality_node_contraction,
)
from cged.costs import CostModel
from cged.dataset import (
    Corpus,
    GxlParseError,
    parse_gxl,
    synthesize_letter_like,
)
from cged.evaluation import TLevel, run_timing_benchmark, sample_pairs
from cged.ged import (
    Heuristic,
    SearchSpec,
    astar_ged,
    beam_ged,
    bipartite_lower_bound,
    hausdorff_lower_bound,
    run_search,
    t_centrality_ged,
)
from cged.graph import (
    DuplicateEdgeError,
    Graph,
    MissingEdgeError,
    MissingNodeError,
    Point2D,
    SelfLoopError,
)
from helpers import cycle_graph, is_cut_vertex_by_recount, path_graph, random_graph, star_graph


def test_ids_are_dense_and_never_reused():
    g = Graph()
    a = g.add_node("C")
    b = g.add_node("N")
    assert (a, b) == (0, 1)
    g.delete_node(a)
    c = g.add_node("O")
    assert c == 2
    assert g.nodes() == [1, 2]


def test_add_edge_rejections():
    g = path_graph(3)
    with pytest.raises(SelfLoopError):
        g.add_edge(1, 1)
    with pytest.raises(MissingNodeError):
        g.add_edge(0, 99)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(0, 1)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(1, 0)  # undirected: reversed orientation is the same edge
    # True is an int equal to 1 and 2.0 hashes as 2, so either would pass
    # for a node; no negative id is ever handed out
    for u, v, bad in [(0, True, True), (True, 0, True), (0, 2.0, 2.0), (-1, 0, -1)]:
        with pytest.raises(ValueError, match=re.escape(f"node id must be an int >= 0, got {bad!r}")):
            g.add_edge(u, v)
    assert g.edges() == [(0, 1, None), (1, 2, None)]


def test_label_validation():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_node("")
    with pytest.raises(TypeError):
        g.add_node(3.14)
    with pytest.raises(ValueError):
        Point2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, float("inf"))
    u = g.add_node("C")
    v = g.add_node("N")
    with pytest.raises(ValueError):
        g.add_edge(u, v, float("inf"))
    for label in (True, False):  # not the valences 1.0 and 0.0
        with pytest.raises(TypeError):
            g.add_edge(u, v, label)
    # text is converted by the parsers, never by the graph
    for label in ("1.5", "2", b"2", [1.0]):
        with pytest.raises(TypeError, match=re.escape(
                f"numeric edge label must be a real number, got {label!r}")):
            g.add_edge(u, v, label)
    assert g.edges() == []
    g.add_edge(u, v, 2)  # an int is a real number, stored as a float
    assert g.edges() == [(u, v, 2.0)] and type(g.edge_label(u, v)) is float
    with pytest.raises(ValueError, match="node id must be an int >= 0, got True"):
        Graph.from_parts(None, None, [(0, "C"), (1, "N")], [(0, True, True)])
    with pytest.raises(TypeError):
        Graph.from_parts(None, None, [(0, "C"), (1, "N")], [(0, 1, True)])
    with pytest.raises(TypeError, match="numeric edge label must be a real number, got '2'"):
        Graph.from_parts(None, None, [(0, "C"), (1, "N")], [(0, 1, "2")])


def test_delete_node_removes_incident_edges():
    g = star_graph(4)
    assert g.degree(0) == 4
    g.delete_node(0)
    assert g.order == 4
    assert g.size == 0
    assert g.component_count() == 4
    with pytest.raises(MissingNodeError):
        g.delete_node(0)


def test_k3_delete_any_node_leaves_single_edge():
    from helpers import complete_graph

    for victim in range(3):
        g = complete_graph(3)
        g.delete_node(victim)
        assert g.order == 2 and g.size == 1


def test_queries_and_ordering():
    g = Graph()
    for i in range(4):
        g.add_node(Point2D(float(i), 0.0))
    g.add_edge(2, 0)
    g.add_edge(3, 1, 2.0)
    assert g.nodes() == [0, 1, 2, 3]
    assert g.edges() == [(0, 2, None), (1, 3, 2.0)]
    assert g.neighbors(0) == [2]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert g.edge_label(3, 1) == 2.0
    with pytest.raises(MissingEdgeError):
        g.edge_label(0, 1)
    with pytest.raises(MissingNodeError):
        g.node_label(9)
    with pytest.raises(MissingNodeError):
        g.neighbors(9)
    with pytest.raises(MissingNodeError):
        g.degree(9)


def test_degree_sum_equals_twice_edges():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, n_max=8, edge_p=0.4)
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.size


def test_connected_components_partition_and_order():
    g = Graph()
    for i in range(5):
        g.add_node("C")
    g.add_edge(3, 4)
    g.add_edge(1, 2)
    blocks = g.connected_components()
    assert blocks == [{0}, {1, 2}, {3, 4}]
    assert g.component_count() == 3
    assert Graph().component_count() == 0


def test_copy_is_independent():
    g = path_graph(3)
    h = g.copy()
    h.delete_node(0)
    h.add_node("Z")
    assert g.order == 3 and g.has_node(0)
    assert h.nodes() == [1, 2, 3]


def test_copy_preserves_id_counter():
    g = path_graph(3)
    h = g.copy()
    assert h.add_node("C") == g.add_node("C")


def test_equality_is_structural():
    a = path_graph(3)
    b = path_graph(3)
    b.name = "other"
    assert a == b
    c = path_graph(3)
    c.delete_node(2)
    c.add_node(Point2D(2.0, 9.0))  # same id, different label
    c.add_edge(1, 3)
    assert a != c
    d = path_graph(3)
    e = Graph.from_parts(None, None,
                         [(i, Point2D(float(i), 0.0)) for i in range(3)],
                         [(0, 1, None)])
    assert d != e  # missing edge
    nodes = [(i, "C") for i in range(4)]
    for label in (3.0, None):  # the same edge with another label
        assert (Graph.from_parts(None, None, nodes, [(0, 1, 2.0)])
                != Graph.from_parts(None, None, nodes, [(0, 1, label)]))
    edges = [(0, 1, None), (1, 2, 1.0), (2, 3, None), (3, 0, 2.0)]
    forward = Graph.from_parts(None, None, nodes, edges)
    backward = Graph.from_parts(None, None, nodes[::-1], [(v, u, w) for u, v, w in edges[::-1]])
    assert forward == backward  # the same edges, added in another order


def test_from_parts_round_trip_and_sparse_ids():
    g = Graph.from_parts("g", "A",
                         [(0, "C"), (5, "N"), (9, Point2D(1.0, 2.0))],
                         [(0, 5, None), (5, 9, 1.5)])
    assert g.nodes() == [0, 5, 9]
    assert g.edges() == [(0, 5, None), (5, 9, 1.5)]
    assert g.add_node("H") == 10  # counter continues past the largest id
    with pytest.raises(ValueError):
        Graph.from_parts(None, None, [(0, "C"), (0, "N")], [])
    with pytest.raises(ValueError):
        Graph.from_parts(None, None, [(-1, "C")], [])
    # True is an int equal to 1, so it would pass for node 1
    with pytest.raises(ValueError, match="node id must be an int >= 0, got True"):
        Graph.from_parts(None, None, [(0, "C"), (True, "N")], [])


def test_articulation_hand_cases():
    assert path_graph(5).articulation_points() == {1, 2, 3}
    assert cycle_graph(5).articulation_points() == set()
    assert star_graph(4).articulation_points() == {0}
    assert path_graph(1).articulation_points() == set()
    # two triangles joined at one shared vertex
    g = Graph()
    for _ in range(5):
        g.add_node("C")
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
        g.add_edge(u, v)
    assert g.articulation_points() == {2}
    # a path 0-1-2 beside isolated node 3: leaves 0 and 2 and node 3 have
    # fewer than two neighbours, so only 1 cuts
    g = Graph.from_parts(None, None, [(i, "C") for i in range(4)],
                         [(0, 1, None), (1, 2, None)])
    assert g.articulation_points() == {1}


def test_cut_vertex_missing_node():
    with pytest.raises(MissingNodeError):
        is_cut_vertex_by_recount(path_graph(2), 7)


def test_articulation_agrees_with_recount_oracle():
    rng = random.Random(202)
    for _ in range(300):
        g = random_graph(rng, n_max=12, edge_p=rng.uniform(0.1, 0.5))
        fast = g.articulation_points()
        for u in g.nodes():
            assert (u in fast) == is_cut_vertex_by_recount(g, u), (g.edges(), u)


def test_delete_decrements_counts_exactly():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, n_max=9, n_min=1, edge_p=0.4)
        u = rng.choice(g.nodes())
        n, m, d = g.order, g.size, g.degree(u)
        g.delete_node(u)
        assert g.order == n - 1
        assert g.size == m - d


EDGE_LABELS = st.one_of(st.none(), st.integers(-3, 3), st.floats(-4.0, 4.0))


@st.composite
def graphs(draw, max_nodes=7):
    """Graphs on sparse, unordered ids with symbolic or coordinate node
    labels and unlabeled, integer or fractional edge labels."""
    ids = draw(st.lists(st.integers(0, 40), max_size=max_nodes, unique=True))
    labels = draw(st.sampled_from([
        st.sampled_from("CNOS"),
        st.builds(Point2D, st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    ]))
    edges = [(u, v, draw(EDGE_LABELS))
             for i, u in enumerate(ids) for v in ids[i + 1:] if draw(st.booleans())]
    return Graph.from_parts(None, None, [(u, draw(labels)) for u in ids], edges)


def fresh_arrays(g: Graph):
    """The form of a newly built graph equal to g, so nothing is cached."""
    return Graph.from_parts(None, None, g.node_items(), g.edges()).arrays()


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_arrays_agree_with_the_graph_api(g):
    a = g.arrays()
    assert g.arrays() is a
    assert list(a.ids) == g.nodes()
    assert len(a.pos) == len(a.ids) and all(a.ids[a.pos[u]] == u for u in a.ids)
    # the stored forms: an (x, y) float pair per point, the string per symbol
    assert list(a.labels) == [(lab.x, lab.y) if isinstance(lab, Point2D) else lab
                              for lab in map(g.node_label, a.ids)]
    assert list(a.deg) == [g.degree(u) for u in a.ids]
    assert [[a.ids[j] for j in row] for row in a.adj] == [g.neighbors(u) for u in a.ids]
    # masks[i] holds adj[i] as bits
    assert [[j for j in range(len(a.ids)) if m >> j & 1] for m in a.masks] \
        == [list(row) for row in a.adj]
    assert [(a.ids[i], a.ids[j]) for i, j in a.edges] == [(u, v) for u, v, _ in g.edges()]
    for i, u in enumerate(a.ids):
        for j, v in enumerate(a.ids):
            if not g.has_edge(u, v):
                want = (0, 0.0)
            elif g.edge_label(u, v) is None:
                want = (1, 0.0)
            else:
                want = (2, g.edge_label(u, v))
            assert (a.kind[i][j], a.val[i][j]) == want
    for rows in (a.ids, a.labels, a.deg, a.adj, a.masks, a.kind, a.val, a.edges):
        assert type(rows) is tuple
    assert all(type(row) is tuple for rows in (a.adj, a.kind, a.val) for row in rows)


@settings(max_examples=100, deadline=None)
@given(g=graphs(), data=st.data())
def test_arrays_show_every_mutation(g, data):
    g.arrays()
    u = g.add_node("C")
    assert g.arrays() == fresh_arrays(g)
    others = [v for v in g.nodes() if v != u]
    if others:
        g.add_edge(u, data.draw(st.sampled_from(others)), data.draw(EDGE_LABELS))
        assert g.arrays() == fresh_arrays(g)
    g.delete_node(data.draw(st.sampled_from(g.nodes())))
    assert g.arrays() == fresh_arrays(g)


@settings(max_examples=60, deadline=None)
@given(g1=graphs(max_nodes=5), g2=graphs(max_nodes=5))
def test_search_and_centrality_leave_the_form_unchanged(g1, g2):
    a1, a2 = g1.arrays(), g2.arrays()
    before = copy.deepcopy((a1, a2))
    astar_ged(g1, g2)
    beam_ged(g1, g2, w=2)
    for g in (g1, g2):
        for measure in CentralityMeasure:
            compute_centrality(g, measure)
    assert g1.arrays() is a1 and g2.arrays() is a2
    assert (a1, a2) == before


@settings(max_examples=100, deadline=None)
@given(g=graphs(), data=st.data())
def test_copy_shares_the_form_until_it_is_mutated(g, data):
    form = g.arrays()
    free = [(u, v) for u in g.nodes() for v in g.nodes() if u < v and not g.has_edge(u, v)]
    mutations = ["add_node"] + (["delete_node"] if g.order else []) + (["add_edge"] if free else [])
    for mutation in mutations:
        h = g.copy()
        assert h.arrays() is form
        if mutation == "add_node":
            h.add_node("C")
        elif mutation == "delete_node":
            h.delete_node(data.draw(st.sampled_from(h.nodes())))
        else:
            h.add_edge(*data.draw(st.sampled_from(free)), data.draw(EDGE_LABELS))
        assert g.arrays() is form and form == fresh_arrays(g)
        assert h.arrays() == fresh_arrays(h)


@settings(max_examples=100, deadline=None)
@given(g=graphs(), data=st.data())
def test_without_equals_deleting_one_node_at_a_time(g, data):
    g.name, g.class_label = "g", "A"
    ids = data.draw(st.lists(st.sampled_from(g.nodes()), unique=True)) if g.order else []
    expected = g.copy()
    for u in ids:
        expected.delete_node(u)
    before = g.copy()
    h = g.without(ids)
    assert h == expected and g == before
    assert (h.name, h.class_label) == ("g", "A")
    assert h.add_node("C") == expected.add_node("C")  # the id counter carries over
    assert h.arrays() == fresh_arrays(h)
    if not ids:
        form = g.arrays()
        assert g.without(ids).arrays() is form
    with pytest.raises(MissingNodeError):
        g.without([max(g.nodes(), default=0) + 1])


@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_pickle_leaves_the_cached_form_out(g):
    g.name, g.class_label = "g", "A"
    size = len(pickle.dumps(g))
    form = g.arrays()
    assert len(pickle.dumps(g)) == size
    back = pickle.loads(pickle.dumps(g))
    assert back == g and (back.name, back.class_label) == ("g", "A")
    assert back.arrays() == form
    assert back.add_node("C") == g.copy().add_node("C")


@pytest.mark.parametrize("mutation", ["add_node", "add_edge", "delete_node"])
def test_memo_is_emptied_by_mutators_and_left_out_of_copies_and_pickles(mutation):
    g = path_graph(3)
    size = len(pickle.dumps(g))
    g._memo["derived"] = path_graph(2)
    assert g.copy()._memo == {}
    assert pickle.loads(pickle.dumps(g))._memo == {}
    assert len(pickle.dumps(g)) == size
    if mutation == "add_node":
        g.add_node(Point2D(0.0, 1.0))
    elif mutation == "add_edge":
        g.add_edge(0, 2)
    else:
        g.delete_node(1)
    assert g._memo == {}


# ----------------------------------------------------------------------
# the number rule (graph._check_real) at every numeric entry point
# ----------------------------------------------------------------------

# every kind of value a caller or a file can hand over: ints too large for
# a float, nan, infinities and -0.0, bools, numpy scalars, and text that
# looks more or less like a number
NUMBERS = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -10**400, 2**1024, 2**1024 - 1, 2**1023, -2**1023]),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
    st.floats(),
    st.booleans(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(alphabet="0123456789+-.eEinfatyINFATY_x", max_size=8),
)


# ints of up to 5,001 digits, past the 4,300 that Python converts to
# decimal text
HUGE_INTS = st.one_of(
    st.integers(-10**5000, 10**5000),
    st.sampled_from([10**5000, -10**5000, 10**4300, 10**4300 - 1, -10**4300]),
)


def number_rule(value, least=-math.inf):
    """What the rule makes of ``value``: its float, or the class it raises."""
    if isinstance(value, (bool, np.bool_, str)):
        return TypeError
    try:
        number = float(value)
    except OverflowError:
        return ValueError
    return number if math.isfinite(number) and number >= least else ValueError


def expect(call, want, rejection=None):
    """``call()`` stores the float ``want`` to the bit, or raises the class
    ``want`` (``rejection`` in its place, when given)."""
    try:
        got = call()
    except (TypeError, ValueError, GxlParseError) as exc:
        assert "Exceeds the limit" not in str(exc), exc
        assert isinstance(want, type), (want, exc)
        assert type(exc) is (rejection or want), exc
    else:
        assert not isinstance(want, type), (want, got)
        assert type(got) is float and got.hex() == want.hex()


def outcome(call):
    try:
        corpus = call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return corpus.name, [g.node_items() for g in corpus]


@settings(max_examples=300, deadline=None)
@given(st.one_of(NUMBERS, HUGE_INTS))
def test_library_entry_points_store_the_float_or_raise_the_rule(value):
    want = number_rule(value)
    expect(lambda: Point2D(value, 0.5).x, want)
    expect(lambda: Point2D(0.5, value).y, want)

    def added():
        g = Graph()
        g.add_node("C")
        g.add_node("N")
        g.add_edge(0, 1, value)
        return g.edge_label(0, 1)

    expect(added, want)
    expect(lambda: Graph.from_parts(None, None, [(0, "C"), (1, "N")],
                                    [(0, 1, value)]).edge_label(0, 1), want)
    for name in ("x_node", "y_node", "x_edge", "y_edge"):
        expect(lambda: getattr(CostModel(**{name: value}), name), number_rule(value, 0))
    # the corpus is the one float(value) gives, failures included
    want = number_rule(value, 0)
    got = outcome(lambda: synthesize_letter_like(3, 2, 1, value))
    if isinstance(want, type):
        assert got[0] is want and got[1].startswith("distortion must be"), got
        assert "Exceeds the limit" not in got[1], got
    else:
        assert got == outcome(lambda: synthesize_letter_like(3, 2, 1, want))


@settings(max_examples=300, deadline=None)
@given(NUMBERS, st.sampled_from(["int", "float", "string"]))
def test_parsers_store_the_float_of_their_text_or_raise_a_parse_error(value, tag):
    text = value if isinstance(value, str) else str(value)

    def read(convert):
        try:
            return number_rule(convert(text))
        except ValueError:  # text the tag's type cannot convert
            return ValueError

    # a <string> x, y or valence is text that the parser converts itself
    want = read(int if tag == "int" else float)
    field = f"<{tag}>{text}</{tag}>"
    zero = "<float>0</float>"

    def gxl_point(x, y):
        return (f'<gxl><graph id="g"><node id="a"><attr name="x">{x}</attr>'
                f'<attr name="y">{y}</attr></node></graph></gxl>')

    symbols = ('<node id="a"><attr name="symbol"><string>C</string></attr></node>'
               '<node id="b"><attr name="symbol"><string>O</string></attr></node>')
    valence = (f'<gxl><graph id="g">{symbols}<edge from="a" to="b">'
               f'<attr name="valence">{field}</attr></edge></graph></gxl>')
    expect(lambda: parse_gxl(gxl_point(field, zero)).node_label(0).x, want, GxlParseError)
    expect(lambda: parse_gxl(gxl_point(zero, field)).node_label(0).y, want, GxlParseError)
    expect(lambda: parse_gxl(valence).edge_label(0, 1), want, GxlParseError)


# ----------------------------------------------------------------------
# the count rule (graph._check_int) at every count, node id and seed, and
# the one renderer (graph._shown) of a rejected value
# ----------------------------------------------------------------------

HUGE = 10**5000  # 16610 bits, too long to print in decimal

# ints of every size, and the values that pass for one elsewhere
INTS = st.one_of(
    HUGE_INTS,
    st.sampled_from([-1, 0, 1, 2, 2**63]),
    st.booleans(),
    st.floats(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


def shown(value):
    """A value as a rule's message prints it: its repr, or its size for an
    int of more than 4,300 digits."""
    if type(value) is int and abs(value) >= 10**4300:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return repr(value)


def rejection(call):
    """The class and message ``call()`` raises, or ``(None, "")``."""
    try:
        call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None, ""


def _pair_corpus():
    return Corpus("pair", [path_graph(3), star_graph(2)])


SPEC = SearchSpec.astar()
T0 = [TLevel.T0]
DEGREE = CentralityMeasure.DEGREE

# (name, least, call): where a call that keeps the value ends in another
# rule (a distortion or seed of -1), that rule names its own argument
COUNT_ENTRY_POINTS = [
    ("node id", 0, lambda v: path_graph(3).add_edge(v, 0)),
    ("node id", 0, lambda v: path_graph(3).add_edge(0, v)),
    ("node id", 0, lambda v: Graph.from_parts(None, None, [(v, "C")], [])),
    ("t", 0, lambda v: t_centrality_node_contraction(path_graph(3), v, DEGREE)),
    ("k", 1, lambda v: k_degree_node_contraction(path_graph(3), v)),
    ("k", 1, lambda v: k_star_node_contraction(path_graph(3), v)),
    ("beam width", 1, lambda v: beam_ged(path_graph(2), path_graph(3), w=v)),
    ("beam width", 1, SearchSpec.beam),
    ("seed", 0, lambda v: synthesize_letter_like(v, 1, 1, -1.0)),
    ("count", 1, lambda v: synthesize_letter_like(0, v, 1, -1.0)),
    ("classes", 1, lambda v: synthesize_letter_like(0, 1, v, -1.0)),
    ("n", 1, lambda v: sample_pairs(v, 1, -1)),
    ("sample", 1, lambda v: sample_pairs(1, v, -1)),
    ("seed", 0, lambda v: sample_pairs(2, 1, v)),
    ("sample", 1, lambda v: run_timing_benchmark(_pair_corpus(), [DEGREE], T0, SPEC, v, -1)),
    ("seed", 0, lambda v: run_timing_benchmark(_pair_corpus(), [DEGREE], T0, SPEC, 1, v)),
]


@settings(max_examples=200, deadline=None)
@given(INTS)
def test_count_entry_points_keep_the_int_or_raise_the_rule(value):
    for name, least, call in COUNT_ENTRY_POINTS:
        rule = f"{name} must be an int >= {least}, got "
        cls, message = rejection(lambda: call(value))
        assert "Exceeds the limit" not in message, (name, message)
        if type(value) is int and value >= least:
            assert not message.startswith(rule), (name, message)
        else:
            assert (cls, message) == (ValueError, rule + shown(value)), name
    # the type rule prints its value the same way
    cls, message = rejection(lambda: SearchSpec.astar(value))
    assert (cls, message) == (ValueError, "heuristic must be a Heuristic, got " + shown(value))


@pytest.mark.parametrize("call, cls, message", [
    (lambda: beam_ged(path_graph(2), path_graph(2), w=-HUGE), ValueError,
     "beam width must be an int >= 1, got a negative int of 16610 bits"),
    (lambda: t_centrality_node_contraction(path_graph(2), -HUGE, DEGREE), ValueError,
     "t must be an int >= 0, got a negative int of 16610 bits"),
    (lambda: SearchSpec.beam(-HUGE), ValueError,
     "beam width must be an int >= 1, got a negative int of 16610 bits"),
    (lambda: SearchSpec(-HUGE), ValueError,
     "beam width must be an int >= 1, got a negative int of 16610 bits"),
    (lambda: SearchSpec.astar(HUGE), ValueError,
     "heuristic must be a Heuristic, got an int of 16610 bits"),
    (lambda: Point2D(HUGE, 0), ValueError, "x must be finite, got an int of 16610 bits"),
    (lambda: CostModel(x_node=HUGE), ValueError,
     "x_node must be finite and >= 0, got an int of 16610 bits"),
    (lambda: path_graph(2).add_edge(HUGE, 0), MissingNodeError,
     "edge endpoint an int of 16610 bits is not in the graph"),
    (lambda: path_graph(2).delete_node(HUGE), MissingNodeError,
     "node an int of 16610 bits is not in the graph"),
    (lambda: path_graph(2).node_label(HUGE), MissingNodeError,
     "node an int of 16610 bits is not in the graph"),
    (lambda: Graph.from_parts(None, None, [(HUGE, "C")] * 2, []), ValueError,
     "duplicate node id an int of 16610 bits"),
])
def test_a_rejected_int_too_long_to_print_is_named_by_its_size(call, cls, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (cls, message)


# ----------------------------------------------------------------------
# the type rule (graph._check_type) at every entry point that takes a
# measure, a search or a cost model
# ----------------------------------------------------------------------

MEASURE_RULE = "measure must be a CentralityMeasure, got "
SEARCH_RULE = "search must be a SearchSpec, got "


@pytest.mark.parametrize("call, message", [
    (lambda g, h: t_centrality_node_contraction(g, 0, "degree"), MEASURE_RULE + "'degree'"),
    (lambda g, h: t_centrality_node_contraction(g, 1, None), MEASURE_RULE + "None"),
    (lambda g, h: compute_centrality(g, HUGE), MEASURE_RULE + "an int of 16610 bits"),
    (lambda g, h: t_centrality_ged(g, h, 1, "degree"), MEASURE_RULE + "'degree'"),
    (lambda g, h: t_centrality_ged(g, h, 1, DEGREE, search="astar"), SEARCH_RULE + "'astar'"),
    (lambda g, h: run_search(g, h, None, "astar"), SEARCH_RULE + "'astar'"),
    (lambda g, h: run_timing_benchmark(Corpus("pair", [g, h]), [DEGREE], [TLevel.T1STAR],
                                       "astar", 1, 0), SEARCH_RULE + "'astar'"),
    (lambda g, h: bipartite_lower_bound(g, h, {}), "cm must be a CostModel, got {}"),
    (lambda g, h: hausdorff_lower_bound(g, h, {}), "cm must be a CostModel, got {}"),
], ids=["contraction-t0", "contraction-t1", "centrality", "t_ged-measure", "t_ged-search",
        "run_search", "timing_benchmark", "bipartite", "hausdorff"])
def test_a_selector_of_another_type_fails_before_any_work(call, message, monkeypatch):
    # neither a centrality, a contracted graph nor a search
    calls = []
    for owner, name in ((contraction, "compute_centrality"), (Graph, "without"),
                        (kernels, "search")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name:
                            calls.append(_n) or _f(*args))
    with pytest.raises(ValueError) as exc:
        call(path_graph(4), star_graph(3))
    assert (type(exc.value), str(exc.value), calls) == (ValueError, message, [])


def test_a_search_is_a_width_and_a_heuristic():
    assert [f.name for f in dataclasses.fields(SearchSpec)] == ["w", "heuristic"]
    specs = [SearchSpec(), SearchSpec(None, Heuristic.ZERO), SearchSpec(3)]
    assert [s.describe() for s in specs] == ["astar(bipartite)", "astar(zero)", "beam(w=3)"]
    assert SearchSpec.beam(HUGE).describe() == "beam(w=an int of 16610 bits)"
    # a kind in the width's place is a width the rule rejects, not a search
    with pytest.raises(ValueError) as exc:
        SearchSpec("astar")
    assert str(exc.value) == "beam width must be an int >= 1, got 'astar'"


@pytest.mark.parametrize("call, message", [
    (lambda: sample_pairs(5, -1, 0), "sample must be an int >= 1, got -1"),
    (lambda: sample_pairs(True, 2, 0), "n must be an int >= 1, got True"),
    (lambda: sample_pairs(5, 2, 1.0), "seed must be an int >= 0, got 1.0"),
    (lambda: sample_pairs(5, 2, np.int64(3)), "seed must be an int >= 0, got np.int64(3)"),
    (lambda: synthesize_letter_like(True, 4, 2, 0.1), "seed must be an int >= 0, got True"),
    (lambda: synthesize_letter_like(-1, 4, 2, 0.1), "seed must be an int >= 0, got -1"),
    (lambda: run_timing_benchmark(_pair_corpus(), [DEGREE], T0, SPEC, 2, seed=True),
     "seed must be an int >= 0, got True"),
    (lambda: run_timing_benchmark(_pair_corpus(), [DEGREE], T0, SPEC, 0, seed=0),
     "sample must be an int >= 1, got 0"),
])
def test_seeds_and_samples_meet_the_count_rule_before_any_search(call, message, monkeypatch):
    # neither a search nor the warm-up that imports scipy
    calls = []
    search = kernels.search
    monkeypatch.setattr(kernels, "search", lambda *args: calls.append(args) or search(*args))
    monkeypatch.setattr(kernels, "warm_up", lambda: calls.append("warm_up"))
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value), calls) == (ValueError, message, [])
