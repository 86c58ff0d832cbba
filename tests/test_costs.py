"""Edit-operation pricing and label distances."""

import copy
import dataclasses
import math
import pickle

import pytest

from cged import CostModel
from cged.costs import (
    EditOperation,
    EditPath,
    OpKind,
    edge_label_distance,
    node_label_distance,
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
    # a bool is an int, so it would be taken for 1.0
    with pytest.raises(TypeError, match="x_node must be a real number, got True"):
        CostModel(x_node=True)


def test_edit_operation_json_round_shape():
    op = EditOperation(OpKind.EDGE_SUB, (0, 1), (2, 3), 1.25)
    d = op.to_json_dict()
    assert d == {"kind": "edge_sub", "source": [0, 1], "target": [2, 3], "cost": 1.25}
    d = EditOperation(OpKind.NODE_INS, None, 4, 1.0).to_json_dict()
    assert d == {"kind": "node_ins", "source": None, "target": 4, "cost": 1.0}


@pytest.mark.parametrize("op", [EditOperation(OpKind.NODE_SUB, 0, 3, 0.5),
                                EditOperation(OpKind.EDGE_DEL, (1, 2), None, 1.0),
                                EditOperation(OpKind.EDGE_INS, None, (4, 5), 2.0)])
def test_edit_operation_survives_pickle_and_deepcopy_and_stays_frozen(op):
    for twin in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op), copy.copy(op)):
        assert twin == op
        assert hash(twin) == hash(op)
        assert twin.kind is op.kind
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.cost = 0.0
    assert not hasattr(op, "__dict__")  # slotted


def test_edit_path_total():
    ops = [EditOperation(OpKind.NODE_DEL, 0, None, 1.0),
           EditOperation(OpKind.NODE_INS, None, 1, 0.5)]
    path = EditPath.from_operations(ops, complete=True)
    assert path.total_cost == 1.5
    assert path.complete
    assert EditPath.from_operations([], True).total_cost == 0.0


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
