"""Edit-cost model: operation kinds, label distances, and cost configuration.

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
from typing import Optional, Tuple

from .graph import EdgeLabel, NodeLabel, Point2D

Edge = Tuple[int, int]


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
    """The four pricing constants. All must be finite and non-negative."""

    x_node: float = 1.0
    y_node: float = 1.0
    x_edge: float = 1.0
    y_edge: float = 1.0

    def __post_init__(self) -> None:
        for name in ("x_node", "y_node", "x_edge", "y_edge"):
            v = getattr(self, name)
            if not (isinstance(v, Real) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, float(v))

    def node_sub_cost(self, a: NodeLabel, b: NodeLabel) -> float:
        return self.y_node * node_label_distance(a, b)

    def edge_sub_cost(self, a: EdgeLabel, b: EdgeLabel) -> float:
        return self.y_edge * edge_label_distance(a, b)


class OpKind(Enum):
    NODE_SUB = "node_sub"
    NODE_DEL = "node_del"
    NODE_INS = "node_ins"
    EDGE_SUB = "edge_sub"
    EDGE_DEL = "edge_del"
    EDGE_INS = "edge_ins"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EditOperation:
    """One edit step. ``source`` refers to the first graph, ``target`` to the second.

    Node operations carry node ids, edge operations carry (u, v) pairs with
    u < v; the side an operation does not touch is None.
    """

    kind: OpKind
    source: Optional[object]
    target: Optional[object]
    cost: float

    @classmethod
    def node_sub(cls, u: int, v: int, cost: float) -> "EditOperation":
        return cls(OpKind.NODE_SUB, u, v, cost)

    @classmethod
    def node_del(cls, u: int, cost: float) -> "EditOperation":
        return cls(OpKind.NODE_DEL, u, None, cost)

    @classmethod
    def node_ins(cls, v: int, cost: float) -> "EditOperation":
        return cls(OpKind.NODE_INS, None, v, cost)

    @classmethod
    def edge_sub(cls, e: Edge, f: Edge, cost: float) -> "EditOperation":
        return cls(OpKind.EDGE_SUB, e, f, cost)

    @classmethod
    def edge_del(cls, e: Edge, cost: float) -> "EditOperation":
        return cls(OpKind.EDGE_DEL, e, None, cost)

    @classmethod
    def edge_ins(cls, f: Edge, cost: float) -> "EditOperation":
        return cls(OpKind.EDGE_INS, None, f, cost)

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
        return cls(list(ops), float(sum(op.cost for op in ops)), complete)

    def to_json_dict(self) -> dict:
        return {
            "operations": [op.to_json_dict() for op in self.operations],
            "total_cost": self.total_cost,
            "complete": self.complete,
        }


# ----------------------------------------------------------------------
# configuration file: flat "key = value" lines, '#' comments
# ----------------------------------------------------------------------

_CONFIG_KEYS = {
    "x_node", "y_node", "x_edge", "y_edge",
    "node_label_distance", "edge_label_distance",
    "heuristic", "beam_width",
}

_POLICY_VALUES = {
    "node_label_distance": {"euclidean"},
    "edge_label_distance": {"absolute"},
    "heuristic": {"zero", "bipartite"},
}


@dataclass(frozen=True)
class SearchSettings:
    """Search knobs that ride along in a cost-model file; ``heuristic`` is
    None when the file names none, so the search's own default applies."""

    heuristic: Optional[str] = None
    beam_width: int = 10


def parse_cost_config(text: str) -> tuple[CostModel, SearchSettings]:
    """Parse 'key = value' lines into a cost model plus search settings.

    Blank lines and '#' comments are skipped. Unknown keys, bad values, and
    duplicate keys are rejected. The two *_label_distance keys name the
    fixed built-in policies and exist so config files are self-describing:
    each accepts only the policy that is implemented (``euclidean`` and
    ``absolute``), so no file can ask for a policy that would be ignored.
    """
    values: dict[str, tuple[int, str]] = {}
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
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in _POLICY_VALUES and val not in _POLICY_VALUES[key]:
            allowed = ", ".join(sorted(_POLICY_VALUES[key]))
            raise ValueError(f"line {lineno}: {key} must be one of: {allowed}")
        values[key] = (lineno, val)

    def num(key: str, default: float) -> float:
        if key not in values:
            return default
        lineno, raw = values[key]
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} must be a number, got {raw!r}") from None

    cm = CostModel(
        x_node=num("x_node", 1.0),
        y_node=num("y_node", 1.0),
        x_edge=num("x_edge", 1.0),
        y_edge=num("y_edge", 1.0),
    )
    width_line, width_raw = values.get("beam_width", (0, "10"))
    try:
        width = int(width_raw)
    except ValueError:
        raise ValueError(
            f"line {width_line}: beam_width must be an integer, got {width_raw!r}") from None
    if width < 1:
        raise ValueError(f"line {width_line}: beam_width must be >= 1, got {width}")
    heuristic = values.get("heuristic", (0, None))[1]
    settings = SearchSettings(heuristic=heuristic, beam_width=width)
    return cm, settings


def load_cost_config(path: str) -> tuple[CostModel, SearchSettings]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cost_config(fh.read())
