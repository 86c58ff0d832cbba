"""Edit-cost model: operation kinds, label distances, and cost-model files.

An edit path is a sequence of node and edge operations. Each operation is
priced from four constants: insertions and deletions cost a flat ``x_node``
or ``x_edge``, substitutions cost ``y_node`` or ``y_edge`` times the
distance between the two labels. Label distances: Euclidean for coordinate
pairs, 0/1 for symbolic names, absolute difference for numeric edge values,
0 for unlabeled edges, and 1.0 whenever the two labels are of different
kinds (so mixing label schemes is maximally penalized rather than
rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import Optional

from .graph import EdgeLabel, NodeLabel, Point2D, _check_real, _check_type


def node_label_distance(a: NodeLabel, b: NodeLabel) -> float:
    """Euclidean for two points, discrete 0/1 for two symbols, 1.0 across kinds."""
    if isinstance(a, Point2D) and isinstance(b, Point2D):
        return math.hypot(a.x - b.x, a.y - b.y)
    if isinstance(a, str) and isinstance(b, str):
        return 0.0 if a == b else 1.0
    return 1.0


def edge_label_distance(a: EdgeLabel, b: EdgeLabel) -> float:
    """0 for two unlabeled edges, absolute difference for two numeric ones, 1.0 mixed."""
    if a is None and b is None:
        return 0.0
    if isinstance(a, Real) and isinstance(b, Real):
        return abs(float(a) - float(b))
    return 1.0


@dataclass(frozen=True)
class CostModel:
    """The four pricing constants, each a real number that
    :func:`~cged.graph._check_real` takes with least 0, stored as a float."""

    x_node: float = 1.0
    y_node: float = 1.0
    x_edge: float = 1.0
    y_edge: float = 1.0

    def __post_init__(self) -> None:
        for name in ("x_node", "y_node", "x_edge", "y_edge"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, 0))

    def node_sub_cost(self, a: NodeLabel, b: NodeLabel) -> float:
        return self.y_node * node_label_distance(a, b)

    def edge_sub_cost(self, a: EdgeLabel, b: EdgeLabel) -> float:
        return self.y_edge * edge_label_distance(a, b)


# The model every search and experiment uses when given none; frozen, so
# one instance serves every call.
DEFAULT_COST_MODEL = CostModel()


def _cost_model(cm: Optional[CostModel]) -> CostModel:
    """The model a search or experiment prices with: ``cm``, or
    :data:`DEFAULT_COST_MODEL` for ``None``. Anything else that is not a
    :class:`CostModel`, such as ``{}`` or 0, raises ``ValueError`` before
    any work starts."""
    if cm is None:
        return DEFAULT_COST_MODEL
    _check_type(cm, CostModel, "cm")
    return cm


class OpKind(Enum):
    NODE_SUB = "node_sub"
    NODE_DEL = "node_del"
    NODE_INS = "node_ins"
    EDGE_SUB = "edge_sub"
    EDGE_DEL = "edge_del"
    EDGE_INS = "edge_ins"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class EditOperation:
    """One edit step. ``source`` refers to the first graph, ``target`` to the second.

    Node operations carry node ids, edge operations carry (u, v) pairs with
    u < v; the side an operation does not touch is None.
    """

    kind: OpKind
    source: Optional[object]
    target: Optional[object]
    cost: float

    def to_json_dict(self) -> dict:
        def enc(x):
            return list(x) if isinstance(x, tuple) else x

        return {
            "kind": self.kind.value,
            "source": enc(self.source),
            "target": enc(self.target),
            "cost": self.cost,
        }


@dataclass
class EditPath:
    """An ordered operation list with its accumulated cost."""

    operations: list[EditOperation] = field(default_factory=list)
    total_cost: float = 0.0
    complete: bool = False

    @classmethod
    def from_operations(cls, ops: list[EditOperation], complete: bool) -> "EditPath":
        # left to right: from Python 3.12, sum() of floats is compensated
        # and would move the total's last bit
        total = 0.0
        for op in ops:
            total += op.cost
        return cls(list(ops), total, complete)

    def to_json_dict(self) -> dict:
        return {
            "operations": [op.to_json_dict() for op in self.operations],
            "total_cost": self.total_cost,
            "complete": self.complete,
        }


# ----------------------------------------------------------------------
# configuration file: flat "key = value" lines, '#' comments
# ----------------------------------------------------------------------

_CONFIG_KEYS = ("x_node", "y_node", "x_edge", "y_edge")


def parse_cost_config(text: str) -> CostModel:
    """Parse 'key = value' lines into a cost model.

    Blank lines and '#' comments are skipped; absent keys keep their
    default of 1.0. Unknown keys, bad values and duplicate keys are
    rejected, naming the line.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}; "
                             f"accepted keys: {', '.join(_CONFIG_KEYS)}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            number = float(val)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} must be a number, got {val!r}") from None
        try:  # the model's own rule, named by the line
            values[key] = _check_real(number, key, 0)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CostModel(**values)


def load_cost_config(path: str) -> CostModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cost_config(fh.read())
