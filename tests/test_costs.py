"""Edit-operation pricing, label distances and config parsing."""

import math

import pytest

from cged import CostModel
from cged.costs import (
    EditOperation,
    EditPath,
    OpKind,
    SearchSettings,
    edge_label_distance,
    load_cost_config,
    node_label_distance,
    parse_cost_config,
)
from cged.graph import Point2D


def test_node_label_distance_cases():
    assert node_label_distance(Point2D(0, 0), Point2D(3, 4)) == 5.0
    assert node_label_distance(Point2D(1, 1), Point2D(1, 1)) == 0.0
    assert node_label_distance("C", "C") == 0.0
    assert node_label_distance("C", "N") == 1.0
    # mixed label kinds are maximally different by convention
    assert node_label_distance("C", Point2D(0, 0)) == 1.0
    assert node_label_distance(Point2D(0, 0), "C") == 1.0


def test_edge_label_distance_cases():
    assert edge_label_distance(None, None) == 0.0
    assert edge_label_distance(2.0, 3.5) == 1.5
    assert edge_label_distance(3.5, 2.0) == 1.5
    assert edge_label_distance(None, 2.0) == 1.0
    assert edge_label_distance(2.0, None) == 1.0


def test_label_distances_are_symmetric_metrics():
    pts = [Point2D(0, 0), Point2D(1, 2), Point2D(3, 1), "C", "N"]
    for a in pts:
        assert node_label_distance(a, a) == 0.0
        for b in pts:
            assert node_label_distance(a, b) == node_label_distance(b, a)
    # each label kind is a metric on its own; the cross-kind constant is a
    # bounded mismatch penalty, not part of either metric
    for kind in (lambda x: isinstance(x, Point2D), lambda x: isinstance(x, str)):
        same = [p for p in pts if kind(p)]
        for a in same:
            for b in same:
                for c in same:
                    assert (node_label_distance(a, c)
                            <= node_label_distance(a, b) + node_label_distance(b, c) + 1e-12)


def test_cost_model_validation():
    cm = CostModel(0.5, 2, 1, 0)
    assert cm.x_node == 0.5 and isinstance(cm.y_node, float)
    with pytest.raises(ValueError):
        CostModel(x_node=-0.1)
    with pytest.raises(ValueError):
        CostModel(y_edge=float("nan"))
    with pytest.raises(ValueError):
        CostModel(x_edge=float("inf"))


def test_edit_operation_json_round_shape():
    op = EditOperation.edge_sub((0, 1), (2, 3), 1.25)
    d = op.to_json_dict()
    assert d == {"kind": "edge_sub", "source": [0, 1], "target": [2, 3], "cost": 1.25}
    d = EditOperation.node_ins(4, 1.0).to_json_dict()
    assert d == {"kind": "node_ins", "source": None, "target": 4, "cost": 1.0}


def test_edit_path_total():
    ops = [EditOperation.node_del(0, 1.0), EditOperation.node_ins(1, 0.5)]
    path = EditPath.from_operations(ops, complete=True)
    assert path.total_cost == 1.5
    assert path.complete
    assert EditPath.from_operations([], True).total_cost == 0.0


def test_parse_cost_config_full():
    text = """
    # comment line
    x_node = 0.9
    y_node = 1.7

    x_edge = 0.4
    y_edge = 0.2
    node_label_distance = euclidean
    edge_label_distance = absolute
    heuristic = bipartite
    beam_width = 5
    """
    cm, settings = parse_cost_config(text)
    assert cm == CostModel(0.9, 1.7, 0.4, 0.2)
    assert settings.heuristic == "bipartite"
    assert settings.beam_width == 5


def test_parse_cost_config_defaults_and_partial():
    cm, settings = parse_cost_config("x_edge = 2.0")
    assert cm == CostModel(x_edge=2.0)
    assert settings == SearchSettings()
    assert settings.heuristic is None  # unset: the search kind's own default
    cm, _ = parse_cost_config("")
    assert cm == CostModel()


def test_parse_cost_config_rejections():
    with pytest.raises(ValueError, match="line 1"):
        parse_cost_config("bogus_key = 1")
    with pytest.raises(ValueError, match="line 2"):
        parse_cost_config("x_node = 1\nx_node = 2")
    with pytest.raises(ValueError, match="line 1"):
        parse_cost_config("x_node = fast")
    with pytest.raises(ValueError):
        parse_cost_config("x_node = -1")
    with pytest.raises(ValueError):
        parse_cost_config("heuristic = magic")
    # the removed count bound fails loudly, naming what is allowed
    with pytest.raises(ValueError, match="line 1: heuristic must be one of: bipartite, zero"):
        parse_cost_config("heuristic = count_bound")
    # only the implemented policies are accepted; others would be ignored
    for text in ("node_label_distance = manhattan",
                 "node_label_distance = discrete",
                 "edge_label_distance = zero"):
        with pytest.raises(ValueError, match="line 1"):
            parse_cost_config(text)
    with pytest.raises(ValueError):
        parse_cost_config("beam_width = 0")
    with pytest.raises(ValueError):
        parse_cost_config("x_node")


def test_load_cost_config(tmp_path):
    p = tmp_path / "m.conf"
    p.write_text("x_node = 0.5\nbeam_width = 3\n")
    cm, settings = load_cost_config(str(p))
    assert cm.x_node == 0.5
    assert settings.beam_width == 3


def test_op_kind_strings():
    assert str(OpKind.NODE_SUB) == "node_sub"
    assert {k.value for k in OpKind} == {
        "node_sub", "node_del", "node_ins", "edge_sub", "edge_del", "edge_ins"}


def test_sub_cost_helpers():
    cm = CostModel(y_node=2.0, y_edge=3.0)
    assert cm.node_sub_cost(Point2D(0, 0), Point2D(0, 1)) == 2.0
    assert cm.edge_sub_cost(1.0, 2.0) == 3.0
    assert cm.edge_sub_cost(None, None) == 0.0
    assert math.isclose(cm.node_sub_cost("a", "b"), 2.0)
