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
:func:`write_gxl` writes one graph as GXL, which :func:`parse_gxl` reads
back exactly.
"""

from __future__ import annotations

import os
import re
import string
import xml.etree.ElementTree as ET
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .graph import Graph, NodeLabel, Point2D, _check_int, _check_real


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


def _attr_map(el: ET.Element) -> dict[str, object]:
    # raises without a location; the walk in parse_gxl adds the element's
    attrs: dict[str, object] = {}
    for attr in el.findall("attr"):
        name = attr.get("name")
        if name is None:
            raise GxlParseError("attr element without a name")
        if len(attr) != 1:
            raise GxlParseError(f"attr {name!r} must hold exactly one value")
        value = attr[0]
        conv = _VALUE_TAGS.get(value.tag)
        if conv is None:
            raise GxlParseError(f"unsupported attr value type <{value.tag}>")
        try:
            attrs[name] = conv((value.text or "").strip())
        except ValueError as exc:
            raise GxlParseError(f"attr {name!r}: {exc}") from None
    return attrs


def _node_label(attrs: dict[str, object]) -> NodeLabel:
    if "symbol" in attrs:  # symbol wins when x/y are present too
        return str(attrs["symbol"]).strip()
    if "x" in attrs and "y" in attrs:
        # <string> text is converted here, and an <int> or <float> value is
        # left to the rule that Point2D and the edge label apply
        x, y = attrs["x"], attrs["y"]
        return Point2D(float(x) if type(x) is str else x, float(y) if type(y) is str else y)
    raise UnknownSchemaError("node attributes match neither the symbol nor the x/y schema")


def _xml_root(data: Union[bytes, str]) -> ET.Element:
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise GxlParseError(f"malformed XML: {expat.ErrorString(exc.code)}",
                            f"line {line}, column {col}") from None


def parse_gxl(data: Union[bytes, str]) -> Graph:
    """Parse one GXL document into a Graph.

    Nodes get the ids 0, 1, ... in document order. A node's label is its
    ``symbol`` attribute when it has one, else its ``x``/``y`` point; an
    edge's label is its ``valence`` attribute as a float, or ``None``. An
    x, y or valence written as ``<string>`` is converted to a float here;
    every x, y and valence then passes :func:`~cged.graph._check_real`, so
    an ``<int>`` too large for a float is not finite.
    Elements other than nodes, edges and their attrs are ignored, but every
    attr of a node or edge must hold one value of a known type. Rejections,
    each a :class:`GxlParseError` whose ``location`` is given in brackets:

    - malformed XML [``line L, column C``];
    - not exactly one ``graph`` element [no location];
    - a node without an id [``node #k``, k the number of nodes before it];
    - a duplicate node id, a bad attr (no name, not exactly one value, an
      unsupported value type, text its type cannot convert), or a bad label
      (a blank symbol, an x/y that is not a finite number) [``node 'id'``];
    - a node with neither a symbol nor both x and y, as
      :class:`UnknownSchemaError` [``node 'id'``];
    - an edge without ``from``/``to``, a bad attr as for nodes, a self-loop,
      a duplicate edge, or a valence that is not a finite number
      [``edge ('from', 'to')``];
    - an edge to a node not declared before it, as
      :class:`DanglingEndpointError` [``edge ('from', 'to')``].
    """
    root = _xml_root(data)
    if root.tag == "graph":
        graphs = [root]
    else:
        graphs = root.findall("graph") or root.findall(".//graph")
    if len(graphs) != 1:
        raise GxlParseError(f"expected exactly one graph element, found {len(graphs)}")
    gel = graphs[0]
    g = Graph(name=gel.get("id") or None)  # an empty id is as good as none
    ids: dict[str, int] = {}  # GXL node id -> graph node id
    # each branch raises without a location and adds it in its handlers,
    # so no location string is built for an element that parses
    for el in gel:
        if el.tag == "node":
            nid = el.get("id")
            if nid is None:
                raise GxlParseError("node element without an id", f"node #{len(ids)}")
            try:
                if nid in ids:
                    raise GxlParseError("duplicate node id")
                ids[nid] = g.add_node(_node_label(_attr_map(el)))
            except GxlParseError as exc:
                raise type(exc)(exc.message, f"node {nid!r}") from None
            except ValueError as exc:  # a non-finite or non-numeric x/y, a blank symbol
                raise GxlParseError(f"bad node label: {exc}", f"node {nid!r}") from None
        elif el.tag == "edge":
            a, b = el.get("from"), el.get("to")
            try:
                if a is None or b is None:
                    raise GxlParseError("edge element without from/to")
                u, v = ids.get(a), ids.get(b)
                if u is None or v is None:
                    raise DanglingEndpointError(
                        f"endpoint {a if u is None else b!r} is not a declared node")
                attrs = _attr_map(el)
                valence = attrs.get("valence")
                g._link(u, v, float(valence) if type(valence) is str else valence)
            except GxlParseError as exc:
                raise type(exc)(exc.message, f"edge ({a!r}, {b!r})") from None
            except ValueError as exc:  # a GraphError, or a non-finite or non-numeric valence
                raise GxlParseError(str(exc), f"edge ({a!r}, {b!r})") from None
    return g


# a character outside XML 1.0's Char production, which no escape can carry
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_safe(text: str, what: str) -> str:
    bad = _NOT_XML.search(text)
    if bad:
        raise ValueError(f"GXL cannot hold the {what} {text!r}: "
                         f"XML 1.0 has no character {bad.group()!r}")
    return text


def write_gxl(g: Graph) -> str:
    """Serialize a graph as one GXL document that :func:`parse_gxl` reads back.

    Nodes are written in ascending id order under their own ids, so a graph
    with the ids 0..n-1 reads back equal, with the same name; any other
    graph reads back with its nodes renumbered 0, 1, ... in the same order.
    Coordinates and valences are written as ``<float>`` by ``repr``, so
    they read back exactly. The class label is not written: IAM keeps it in
    the CXL index, and a graph loaded from a single GXL file has none.

    Raises :class:`ValueError` for what would not read back the same: an
    empty name (read as no name), a symbol with surrounding whitespace
    (which the parser strips), or a character that XML 1.0 cannot hold.
    """
    if g.name == "":
        raise ValueError("GXL reads an empty graph id as no name, so a graph "
                         "name cannot be empty")
    gid = "" if g.name is None else f" id={quoteattr(_xml_safe(g.name, 'graph name'))}"
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<gxl>",
             f'<graph{gid} edgeids="false" edgemode="undirected">']
    for u, label in g.node_items():
        if isinstance(label, Point2D):
            attrs = (f'<attr name="x"><float>{label.x!r}</float></attr>'
                     f'<attr name="y"><float>{label.y!r}</float></attr>')
        else:
            if label != label.strip():
                raise ValueError("GXL strips a symbol's surrounding whitespace, so the "
                                 f"symbol {label!r} would not read back")
            # a literal \r in XML text reads back as \n
            text = escape(_xml_safe(label, "symbol"), {"\r": "&#13;"})
            attrs = f'<attr name="symbol"><string>{text}</string></attr>'
        lines.append(f'<node id="{u}">{attrs}</node>')
    for u, v, label in g.edges():
        attrs = "" if label is None else f'<attr name="valence"><float>{label!r}</float></attr>'
        lines.append(f'<edge from="{u}" to="{v}">{attrs}</edge>')
    lines += ["</graph>", "</gxl>", ""]
    return "\n".join(lines)


def load_graph_file(path: Union[str, Path]) -> Graph:
    """Load one GXL graph file, whatever its extension; a graph without an
    id is named after the file's stem.

    Every parse error names the file: its message starts with the path.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {p}: {exc}") from None
    try:
        g = parse_gxl(raw)
    except GxlParseError as exc:
        raise type(exc)(f"{p}: {exc.message}", exc.location) from None
    if g.name is None:
        g.name = p.stem
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

    Each entry's file is read from ``os.path.join(base_path, file)`` and
    parsed, in entry order; its graph is named after the file name without
    directory or extension (``os.path.splitext``). When any entry fails, a
    :class:`CorpusLoadError` is raised instead of a partial corpus; it names
    every file that could not be read or parsed, in entry order, and then
    every duplicate graph name.
    """
    root = _xml_root(data)
    entries = [
        (el.get("file"), el.get("class"))
        for el in root.iter()
        if el.get("file") is not None and el.get("class") is not None
    ]
    base = os.fspath(base_path)
    graphs: list[Graph] = []
    failures: list[str] = []
    for fname, cls in entries:
        try:
            # unbuffered: one read takes the whole file
            with open(os.path.join(base, fname), "rb", buffering=0) as fh:
                raw = fh.read()
            g = parse_gxl(raw)
        except (OSError, DatasetError) as exc:
            failures.append(f"{fname}: {exc}")
            continue
        g.name = os.path.splitext(os.path.basename(fname))[0]
        g.class_label = cls
        graphs.append(g)
    seen: set[str] = set()
    for g in graphs:
        if g.name in seen:
            failures.append(f"{g.name}: duplicate graph name in index")
        seen.add(g.name)
    if failures:
        raise CorpusLoadError(failures)
    return Corpus(name or Path(base_path).name, graphs, split)


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
    _check_int(seed, "seed", 0)
    _check_int(count, "count", 1)
    _check_int(classes, "classes", 1)
    distortion = _check_real(distortion, "distortion", 0)
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
            if rng.random() < min(1.0, distortion):
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
