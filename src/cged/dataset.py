"""Corpus ingestion: GXL graph files, CXL index files, and a synthetic fallback.

The real corpora are distributed as one GXL (graph XML) file per graph plus
CXL index files listing (file, class) pairs per split. Those archives are
not bundled here; :func:`locate_iam_indexes` finds them under a user-supplied
root directory, and :func:`synthesize_letter_like` generates a deterministic
stand-in corpus so everything downstream also runs without the download.

Node labels are taken from the ``symbol`` attribute when present (chemical
element names), else from ``x``/``y`` coordinate attributes; a node with
neither is rejected. Edge ``valence`` attributes become numeric edge
labels; edges without one stay unlabeled. All other attributes are ignored.

A line-oriented debug text format (one node or edge per line) is provided
for CLI output and tests; it round-trips ids, labels, and counts exactly.
"""

from __future__ import annotations

import string
import xml.etree.ElementTree as ET
from xml.parsers import expat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .graph import EdgeLabel, Graph, GraphError, NodeLabel, Point2D


class DatasetError(Exception):
    """Base class for corpus ingestion failures."""


class GxlParseError(DatasetError):
    """Malformed GXL document or graph structure; carries a location hint."""

    def __init__(self, message: str, location: str | None = None):
        self.message = message
        self.location = location
        super().__init__(f"{message} [{location}]" if location else message)


class UnknownSchemaError(GxlParseError):
    """A node's attributes match neither the coordinate nor the symbol schema."""


class DanglingEndpointError(GxlParseError):
    """An edge references a node id the document never declares."""


class CorpusLoadError(DatasetError):
    """One or more index entries failed to load; lists every failure."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        lines = "\n  ".join(self.failures)
        super().__init__(f"{len(self.failures)} corpus file(s) failed to load:\n  {lines}")


class Split(Enum):
    TRAIN = "train"
    TEST = "test"

    def __str__(self) -> str:
        return self.value


@dataclass
class Corpus:
    """A named list of class-labeled graphs belonging to one split."""

    name: str
    graphs: list[Graph] = field(default_factory=list)
    split: Split = Split.TRAIN

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


@dataclass
class CorpusStats:
    graph_count: int
    avg_nodes: float
    avg_edges: float
    class_histogram: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "graph_count": self.graph_count,
            "avg_nodes": self.avg_nodes,
            "avg_edges": self.avg_edges,
            "class_histogram": dict(sorted(self.class_histogram.items())),
        }


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Arithmetic node/edge means and the class histogram of a corpus."""
    n = len(corpus.graphs)
    hist: dict[str, int] = {}
    for g in corpus.graphs:
        key = g.class_label if g.class_label is not None else ""
        hist[key] = hist.get(key, 0) + 1
    avg_nodes = sum(g.order for g in corpus.graphs) / n if n else 0.0
    avg_edges = sum(g.size for g in corpus.graphs) / n if n else 0.0
    return CorpusStats(n, avg_nodes, avg_edges, hist)


# ----------------------------------------------------------------------
# GXL graph files
# ----------------------------------------------------------------------

_VALUE_TAGS = {
    "float": float,
    "double": float,
    "int": int,
    "integer": int,
    "string": str,
}


def _attr_map(el: ET.Element, where: str) -> dict[str, object]:
    attrs: dict[str, object] = {}
    for child in el:
        if child.tag != "attr":
            continue
        name = child.get("name")
        if name is None:
            raise GxlParseError("attr element without a name", where)
        values = list(child)
        if len(values) != 1:
            raise GxlParseError(f"attr {name!r} must hold exactly one value", where)
        value = values[0]
        conv = _VALUE_TAGS.get(value.tag)
        if conv is None:
            raise GxlParseError(f"unsupported attr value type <{value.tag}>", where)
        text = (value.text or "").strip()
        try:
            attrs[name] = conv(text)
        except ValueError as exc:
            raise GxlParseError(f"attr {name!r}: {exc}", where) from None
    return attrs


def _node_label(attrs: dict[str, object], where: str) -> NodeLabel:
    if "symbol" in attrs:  # symbol wins when x/y are present too
        return str(attrs["symbol"]).strip()
    if "x" in attrs and "y" in attrs:
        return Point2D(float(attrs["x"]), float(attrs["y"]))
    raise UnknownSchemaError(
        "node attributes match neither the symbol nor the x/y schema", where)


def _xml_root(data: Union[bytes, str]) -> ET.Element:
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise GxlParseError(f"malformed XML: {expat.ErrorString(exc.code)}",
                            f"line {line}, column {col}") from None


def parse_gxl(data: Union[bytes, str]) -> Graph:
    """Parse one GXL document into a Graph.

    A node's label is its ``symbol`` attribute when it has one, else its
    ``x``/``y`` point. Raises :class:`GxlParseError` (malformed document or
    label value), :class:`UnknownSchemaError` (a node with neither), or
    :class:`DanglingEndpointError` (edge to an undeclared node), each
    carrying a location hint.
    """
    root = _xml_root(data)
    if root.tag == "graph":
        graphs = [root]
    else:
        graphs = root.findall("graph") or root.findall(".//graph")
    if len(graphs) != 1:
        raise GxlParseError(f"expected exactly one graph element, found {len(graphs)}")
    gel = graphs[0]
    g = Graph(name=gel.get("id"))
    name_to_id: dict[str, int] = {}
    for el in gel:
        if el.tag == "node":
            nid = el.get("id")
            if nid is None:
                raise GxlParseError("node element without an id",
                                    f"node #{len(name_to_id)}")
            where = f"node {nid!r}"
            if nid in name_to_id:
                raise GxlParseError("duplicate node id", where)
            attrs = _attr_map(el, where)
            try:
                name_to_id[nid] = g.add_node(_node_label(attrs, where))
            except ValueError as exc:  # a non-finite or non-numeric x/y, a blank symbol
                raise GxlParseError(f"bad node label: {exc}", where) from None
        elif el.tag == "edge":
            a, b = el.get("from"), el.get("to")
            where = f"edge ({a!r}, {b!r})"
            if a is None or b is None:
                raise GxlParseError("edge element without from/to", where)
            for end in (a, b):
                if end not in name_to_id:
                    raise DanglingEndpointError(
                        f"endpoint {end!r} is not a declared node", where)
            attrs = _attr_map(el, where)
            try:  # a GraphError, or a non-finite or non-numeric valence
                label: EdgeLabel = float(attrs["valence"]) if "valence" in attrs else None
                g.add_edge(name_to_id[a], name_to_id[b], label)
            except ValueError as exc:
                raise GxlParseError(str(exc), where) from None
    return g


# ----------------------------------------------------------------------
# CXL index files
# ----------------------------------------------------------------------

def parse_cxl_index(
    data: Union[bytes, str],
    base_path: Union[str, Path],
    name: Optional[str] = None,
    split: Split = Split.TRAIN,
) -> Corpus:
    """Load every (file, class) entry of a CXL index into a Corpus.

    Referenced GXL files are resolved against ``base_path`` and parsed in
    entry order. When any entry fails, a :class:`CorpusLoadError` is raised
    instead of a partial corpus; it names every file that could not be read
    or parsed, in entry order, and then every duplicate graph name.
    """
    root = _xml_root(data)
    entries = [
        (el.get("file"), el.get("class"))
        for el in root.iter()
        if el.get("file") is not None and el.get("class") is not None
    ]
    base = Path(base_path)
    graphs: list[Graph] = []
    failures: list[str] = []
    for fname, cls in entries:
        try:
            g = parse_gxl((base / fname).read_bytes())
        except (OSError, DatasetError) as exc:
            failures.append(f"{fname}: {exc}")
            continue
        g.name = Path(fname).stem
        g.class_label = cls
        graphs.append(g)
    seen: set[str] = set()
    for g in graphs:
        if g.name in seen:
            failures.append(f"{g.name}: duplicate graph name in index")
        seen.add(g.name)
    if failures:
        raise CorpusLoadError(failures)
    return Corpus(name or base.name, graphs, split)


def load_iam_corpus(index_path: Union[str, Path], split: Split) -> Corpus:
    """Read one CXL index file and the GXL files it references."""
    path = Path(index_path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read index {path}: {exc}") from None
    return parse_cxl_index(data, path.parent, name=path.stem, split=split)


_IAM_LAYOUTS: dict[str, list[str]] = {
    "letter-high": ["Letter/HIGH", "Letter/LetterH", "letter/HIGH"],
    "letter-med": ["Letter/MED", "letter/MED"],
    "letter-low": ["Letter/LOW", "letter/LOW"],
    "aids": ["AIDS/data", "AIDS", "aids/data"],
}


def locate_iam_indexes(root: Union[str, Path], dataset: str) -> tuple[Path, Path]:
    """Find (train.cxl, test.cxl) for a named dataset under a root directory.

    Raises :class:`DatasetError` listing every directory that was tried.
    """
    if dataset not in _IAM_LAYOUTS:
        known = ", ".join(sorted(_IAM_LAYOUTS))
        raise DatasetError(f"unknown dataset {dataset!r}; known: {known}")
    rootp = Path(root)
    tried = []
    for rel in _IAM_LAYOUTS[dataset]:
        d = rootp / rel
        train, test = d / "train.cxl", d / "test.cxl"
        if train.is_file() and test.is_file():
            return train, test
        tried.append(str(d))
    raise DatasetError(
        f"dataset {dataset!r} not found under {rootp}; tried: " + ", ".join(tried))


# ----------------------------------------------------------------------
# synthetic fallback corpus
# ----------------------------------------------------------------------

# letter-like prototype shapes: (node count, edge list on nodes 0..n-1)
_TEMPLATES: list[tuple[int, list[tuple[int, int]]]] = [
    (4, [(0, 1), (1, 2), (2, 3)]),                                  # stroke
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),                  # loop
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),                          # fan
    (6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]),                  # branch
    (4, [(0, 1), (1, 2), (2, 0), (2, 3)]),                          # loop + tail
    (6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)]),  # braced box + tail
    (5, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)]),                  # kite
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),                  # long stroke
]


def _class_names(classes: int) -> list[str]:
    out = []
    for i in range(classes):
        letter = string.ascii_uppercase[i % 26]
        out.append(letter if i < 26 else f"{letter}{i // 26}")
    return out


def _flip_one_edge(edges: list[tuple[int, int]], n: int,
                   rng: np.random.Generator) -> list[tuple[int, int]]:
    # normalize to u < v so reversed template pairs cannot sneak back in
    present = {(min(u, v), max(u, v)) for u, v in edges}
    absent = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in present]
    add = rng.random() < 0.5
    if add and absent:
        pick = absent[int(rng.integers(len(absent)))]
        return sorted(present | {pick})
    if present:
        ordered = sorted(present)
        pick = ordered[int(rng.integers(len(ordered)))]
        return sorted(present - {pick})
    return []


def synthesize_letter_like(
    seed: int,
    count: int,
    classes: int,
    distortion: float,
) -> Corpus:
    """Deterministic pseudo-random corpus of letter-like coordinate graphs.

    Each class gets a prototype shape with random coordinates in [0, 4)^2.
    Instance i belongs to class i mod classes; for distortion > 0 its
    coordinates get Gaussian noise of that scale and, with probability
    min(1, distortion), one edge is added or removed. At distortion 0
    every instance equals its class prototype exactly.
    """
    if count < 1 or classes < 1:
        raise ValueError("count and classes must be >= 1")
    if not distortion >= 0:
        raise ValueError(f"distortion must be >= 0, got {distortion!r}")
    labels = _class_names(classes)
    protos = []
    for c in range(classes):
        n, edges = _TEMPLATES[c % len(_TEMPLATES)]
        rng = np.random.default_rng([seed, 1_000_003 + c])
        protos.append((n, edges, rng.uniform(0.0, 4.0, size=(n, 2))))
    graphs = []
    for i in range(count):
        c = i % classes
        n, edges, coords = protos[c]
        g = Graph(name=f"syn-{labels[c]}-{i:04d}", class_label=labels[c])
        if distortion > 0:
            rng = np.random.default_rng([seed, c, i])
            pts = coords + rng.normal(0.0, distortion, size=coords.shape)
            edge_set = list(edges)
            if rng.random() < min(1.0, float(distortion)):
                edge_set = _flip_one_edge(edge_set, n, rng)
        else:
            pts = coords
            edge_set = list(edges)
        ids = [g.add_node(Point2D(float(x), float(y))) for x, y in pts]
        for u, v in edge_set:
            g.add_edge(ids[u], ids[v])
        graphs.append(g)
    return Corpus(f"synthetic-d{distortion:g}", graphs)


def split_corpus(corpus: Corpus) -> tuple[Corpus, Corpus]:
    """Deterministic stratified half split: within each class, the graphs
    at odd per-class positions (the 2nd, 4th, ...) go to test."""
    train: list[Graph] = []
    test: list[Graph] = []
    seen: dict[str, int] = {}
    for g in corpus.graphs:
        k = seen.get(g.class_label, 0)
        seen[g.class_label] = k + 1
        if k % 2:
            test.append(g)
        else:
            train.append(g)
    return (
        Corpus(f"{corpus.name}-train", train, Split.TRAIN),
        Corpus(f"{corpus.name}-test", test, Split.TEST),
    )


# ----------------------------------------------------------------------
# line-oriented debug text format
# ----------------------------------------------------------------------

def write_debug_graph(g: Graph) -> str:
    """Serialize a graph, one node or edge per line.

    Format: a ``graph <name> <class>`` header ('-' for unset, so neither
    can be '-'; names must be whitespace-free), then
    ``node <id> point <x> <y>`` or ``node <id> symbol <s>`` lines, then
    ``edge <u> <v> [value]`` lines.
    Floats are written with repr so they round-trip exactly.
    """
    def tok(s: str) -> str:
        if any(ch.isspace() for ch in s):
            raise ValueError(f"debug format requires whitespace-free names, got {s!r}")
        return s

    def name(s: Optional[str]) -> str:
        if s == "-":
            raise ValueError("debug format writes '-' for an unset name or class; "
                             "a graph name or class cannot be '-'")
        return "-" if s is None else tok(s)

    lines = [f"graph {name(g.name)} {name(g.class_label)}"]
    for u, label in g.node_items():
        if isinstance(label, Point2D):
            lines.append(f"node {u} point {label.x!r} {label.y!r}")
        else:
            lines.append(f"node {u} symbol {tok(label)}")
    for u, v, label in g.edges():
        if label is None:
            lines.append(f"edge {u} {v}")
        else:
            lines.append(f"edge {u} {v} {label!r}")
    return "\n".join(lines) + "\n"


def parse_debug_graph(text: str) -> Graph:
    """Inverse of :func:`write_debug_graph`."""
    nodes: list[tuple[int, NodeLabel]] = []
    edges: list[tuple[int, int, EdgeLabel]] = []
    name: Optional[str] = None
    class_label: Optional[str] = None
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "graph":
                if len(parts) != 3:
                    raise ValueError("graph line needs: graph <name> <class>")
                name = None if parts[1] == "-" else parts[1]
                class_label = None if parts[2] == "-" else parts[2]
                saw_header = True
            elif kind == "node":
                if len(parts) >= 4 and parts[2] == "point":
                    if len(parts) != 5:
                        raise ValueError("point node needs: node <id> point <x> <y>")
                    nodes.append((int(parts[1]), Point2D(float(parts[3]), float(parts[4]))))
                elif len(parts) == 4 and parts[2] == "symbol":
                    nodes.append((int(parts[1]), parts[3]))
                else:
                    raise ValueError("node line needs 'point <x> <y>' or 'symbol <s>'")
            elif kind == "edge":
                if len(parts) == 3:
                    edges.append((int(parts[1]), int(parts[2]), None))
                elif len(parts) == 4:
                    edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
                else:
                    raise ValueError("edge line needs: edge <u> <v> [value]")
            else:
                raise ValueError(f"unknown line kind {kind!r}")
        except ValueError as exc:
            raise GxlParseError(str(exc), f"line {lineno}") from None
    if not saw_header:
        raise GxlParseError("missing 'graph' header line")
    try:
        return Graph.from_parts(name, class_label, nodes, edges)
    except (ValueError, GraphError) as exc:
        raise GxlParseError(str(exc)) from None


def load_graph_file(path: Union[str, Path]) -> Graph:
    """Load one graph from a .gxl or debug-format text file (by extension).

    Every parse error names the file: its message starts with the path.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {p}: {exc}") from None
    gxl = p.suffix.lower() == ".gxl"
    if not gxl:
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GxlParseError(f"{p} is not UTF-8 text", f"byte {exc.start}") from None
    try:
        g = parse_gxl(raw) if gxl else parse_debug_graph(raw)
    except GxlParseError as exc:
        raise type(exc)(f"{p}: {exc.message}", exc.location) from None
    if gxl and g.name is None:
        g.name = p.stem
    return g
