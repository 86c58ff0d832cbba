"""File formats, corpus loading, the synthetic corpus and splits."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cged import CentralityMeasure, astar_ged
from cged.dataset import (
    Corpus,
    CorpusLoadError,
    DanglingEndpointError,
    DatasetError,
    GxlParseError,
    Split,
    UnknownSchemaError,
    corpus_stats,
    load_graph_file,
    load_iam_corpus,
    locate_iam_indexes,
    parse_cxl_index,
    parse_gxl,
    split_corpus,
    synthesize_letter_like,
    write_gxl,
)
from cged.graph import Graph, Point2D
from helpers import cycle_graph, path_graph

COORD_GXL = """
<gxl><graph id="g1" edgeids="false" edgemode="undirected">
  <node id="_0">
    <attr name="x"><float>0.5</float></attr>
    <attr name="y"><float>1.5</float></attr>
  </node>
  <node id="_1">
    <attr name="x"><int>2</int></attr>
    <attr name="y"><double>3.25</double></attr>
  </node>
  <edge from="_0" to="_1"/>
</graph></gxl>
"""

MOL_GXL = """
<gxl><graph id="mol">
  <node id="a"><attr name="symbol"><string> C </string></attr></node>
  <node id="b"><attr name="symbol"><string>O</string></attr></node>
  <edge from="a" to="b"><attr name="valence"><int>2</int></attr></edge>
</graph></gxl>
"""


def test_parse_gxl_coordinates():
    g = parse_gxl(COORD_GXL)
    assert g.name == "g1"
    assert g.order == 2 and g.size == 1
    assert g.node_label(0) == Point2D(0.5, 1.5)
    assert g.node_label(1) == Point2D(2.0, 3.25)
    assert g.edge_label(0, 1) is None


def test_parse_gxl_symbols_and_valence():
    g = parse_gxl(MOL_GXL)
    assert g.node_label(0) == "C"  # whitespace stripped
    assert g.node_label(1) == "O"
    assert g.edge_label(0, 1) == 2.0


def test_parse_gxl_symbol_wins_in_auto_mode():
    doc = """
    <gxl><graph id="g">
      <node id="n">
        <attr name="x"><float>1</float></attr>
        <attr name="y"><float>2</float></attr>
        <attr name="symbol"><string>N</string></attr>
      </node>
    </graph></gxl>
    """
    assert parse_gxl(doc).node_label(0) == "N"
    # without a symbol, a node needs both coordinates
    with pytest.raises(UnknownSchemaError):
        parse_gxl(doc.replace('<attr name="symbol"><string>N</string></attr>', "")
                  .replace('<attr name="y"><float>2</float></attr>', ""))


def test_parse_gxl_malformed_xml_reports_location():
    with pytest.raises(GxlParseError) as exc:
        parse_gxl("<gxl><graph id='g'>")
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_parse_gxl_structural_rejections():
    with pytest.raises(GxlParseError, match="exactly one graph"):
        parse_gxl("<gxl></gxl>")
    with pytest.raises(GxlParseError, match="exactly one graph"):
        parse_gxl("<gxl><graph id='a'/><graph id='b'/></gxl>")
    with pytest.raises(GxlParseError, match="duplicate node id") as exc:
        parse_gxl("""<graph id="g">
          <node id="n"><attr name="symbol"><string>C</string></attr></node>
          <node id="n"><attr name="symbol"><string>C</string></attr></node>
        </graph>""")
    assert exc.value.location == "node 'n'"
    with pytest.raises(GxlParseError, match="without an id") as exc:
        parse_gxl("<graph id='g'><node/></graph>")
    assert exc.value.location == "node #0"
    with pytest.raises(GxlParseError, match="self-loop") as exc:
        parse_gxl("""<graph id="g">
          <node id="n"><attr name="symbol"><string>C</string></attr></node>
          <edge from="n" to="n"/>
        </graph>""")
    assert exc.value.location == "edge ('n', 'n')"


def test_parse_gxl_dangling_endpoint():
    doc = """
    <graph id="g">
      <node id="a"><attr name="symbol"><string>C</string></attr></node>
      <edge from="a" to="zz"/>
    </graph>
    """
    with pytest.raises(DanglingEndpointError) as exc:
        parse_gxl(doc)
    assert "zz" in str(exc.value)
    assert isinstance(exc.value, GxlParseError)


def test_parse_gxl_attr_rejections():
    with pytest.raises(GxlParseError, match="unsupported attr value"):
        parse_gxl("""<graph id="g">
          <node id="n"><attr name="symbol"><blob>C</blob></attr></node>
        </graph>""")
    with pytest.raises(GxlParseError, match="without a name") as exc:
        parse_gxl("""<graph id="g">
          <node id="n"><attr><string>C</string></attr></node>
        </graph>""")
    assert exc.value.location == "node 'n'"
    with pytest.raises(GxlParseError, match="attr 'x'"):
        parse_gxl("""<graph id="g">
          <node id="n">
            <attr name="x"><float>wide</float></attr>
            <attr name="y"><float>0</float></attr>
          </node>
        </graph>""")


def _gxl_doc(body: str) -> str:
    return f"""<gxl><graph id="g">
      <node id="a"><attr name="symbol"><string>C</string></attr></node>
      <node id="b"><attr name="symbol"><string>O</string></attr></node>
      {body}
    </graph></gxl>"""


def _node(attrs: str) -> str:
    return f'<node id="n">{attrs}</node>'


def _sym(text: str) -> str:
    return f'<attr name="symbol"><string>{text}</string></attr>'


def _valence(value: str) -> str:
    return f'<edge from="a" to="b"><attr name="valence">{value}</attr></edge>'


X0 = '<attr name="x"><float>0</float></attr>'
Y0 = '<attr name="y"><float>0</float></attr>'
BIG = "1" + "0" * 399  # 400 digits
# (document, exception class, message, location) for every rejection that
# parse_gxl's docstring lists
GXL_REJECTIONS = [
    ("<gxl><graph id='g'>", GxlParseError, "malformed XML: no element found", "line 1, column 19"),
    ("<gxl></gxl>", GxlParseError, "expected exactly one graph element, found 0", None),
    ("<gxl><graph id='a'/><graph id='b'/></gxl>", GxlParseError,
     "expected exactly one graph element, found 2", None),
    (_gxl_doc("<node/>"), GxlParseError, "node element without an id", "node #2"),
    (_gxl_doc('<node id="a">' + _sym("N") + "</node>"), GxlParseError,
     "duplicate node id", "node 'a'"),
    (_gxl_doc(_node("<attr><string>C</string></attr>")), GxlParseError,
     "attr element without a name", "node 'n'"),
    (_gxl_doc(_node('<attr name="symbol"><string>C</string><string>N</string></attr>')),
     GxlParseError, "attr 'symbol' must hold exactly one value", "node 'n'"),
    (_gxl_doc(_node('<attr name="symbol"></attr>')), GxlParseError,
     "attr 'symbol' must hold exactly one value", "node 'n'"),
    (_gxl_doc(_node('<attr name="symbol"><blob>C</blob></attr>')), GxlParseError,
     "unsupported attr value type <blob>", "node 'n'"),
    (_gxl_doc(_node('<attr name="x"><float>wide</float></attr>')), GxlParseError,
     "attr 'x': could not convert string to float: 'wide'", "node 'n'"),
    (_gxl_doc(_node(_sym(" "))), GxlParseError,
     "bad node label: symbolic node label must be a non-empty string", "node 'n'"),
    (_gxl_doc(_node('<attr name="x"><float>inf</float></attr>'
                    '<attr name="y"><float>0</float></attr>')), GxlParseError,
     "bad node label: x must be finite, got inf", "node 'n'"),
    (_gxl_doc(_node(X0 + '<attr name="y"><string>up</string></attr>')), GxlParseError,
     "bad node label: could not convert string to float: 'up'", "node 'n'"),
    (_gxl_doc(_node(X0)), UnknownSchemaError,
     "node attributes match neither the symbol nor the x/y schema", "node 'n'"),
    (_gxl_doc('<edge from="a"/>'), GxlParseError,
     "edge element without from/to", "edge ('a', None)"),
    (_gxl_doc('<edge from="zz" to="b"/>'), DanglingEndpointError,
     "endpoint 'zz' is not a declared node", "edge ('zz', 'b')"),
    (_gxl_doc('<edge from="a" to="zz"/>'), DanglingEndpointError,
     "endpoint 'zz' is not a declared node", "edge ('a', 'zz')"),
    (_gxl_doc('<edge from="b" to="b"/>'), GxlParseError, "self-loop on node 1", "edge ('b', 'b')"),
    (_gxl_doc('<edge from="a" to="b"/><edge from="a" to="b"/>'), GxlParseError,
     "edge (0, 1) already present", "edge ('a', 'b')"),
    (_gxl_doc('<edge from="a" to="b"/><edge from="b" to="a"/>'), GxlParseError,
     "edge (1, 0) already present", "edge ('b', 'a')"),
    (_gxl_doc(_valence("<float>inf</float>")), GxlParseError,
     "numeric edge label must be finite, got inf", "edge ('a', 'b')"),
    (_gxl_doc(_valence("<string>two</string>")), GxlParseError,
     "could not convert string to float: 'two'", "edge ('a', 'b')"),
    (_gxl_doc(_valence("<int>1.5</int>")), GxlParseError,
     "attr 'valence': invalid literal for int() with base 10: '1.5'", "edge ('a', 'b')"),
    (_gxl_doc('<edge from="a" to="b"><attr name="valence"><int>1</int><int>2</int></attr></edge>'),
     GxlParseError, "attr 'valence' must hold exactly one value", "edge ('a', 'b')"),
    # an int too large for a float is not finite
    (f'<gxl><graph id="g"><node id="a"><attr name="x"><int>{BIG}</int></attr>{Y0}</node>'
     "</graph></gxl>", GxlParseError,
     f"bad node label: x must be finite, got {BIG}", "node 'a'"),
    (_gxl_doc(_valence(f"<int>{BIG}</int>")), GxlParseError,
     f"numeric edge label must be finite, got {BIG}", "edge ('a', 'b')"),
]


@pytest.mark.parametrize("doc, cls, message, location", GXL_REJECTIONS)
def test_parse_gxl_rejection_class_message_and_location(doc, cls, message, location):
    with pytest.raises(GxlParseError) as exc:
        parse_gxl(doc)
    assert type(exc.value) is cls
    assert (exc.value.message, exc.value.location) == (message, location)
    assert str(exc.value) == (f"{message} [{location}]" if location else message)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TEXT = st.text(alphabet="CNOSHl&<>\"' é-1\r\t\n", min_size=1, max_size=4).filter(
    lambda s: s == s.strip())


@st.composite
def gxl_graphs(draw):
    n = draw(st.integers(0, 6))
    nodes = [(u, draw(st.one_of(_TEXT, st.builds(Point2D, _FINITE, _FINITE)))) for u in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, draw(st.one_of(st.none(), st.integers(-3, 3).map(float), _FINITE)))
             for u, v in chosen]
    return Graph.from_parts(draw(st.one_of(st.none(), _TEXT)), None, nodes, edges)


@settings(max_examples=150, deadline=None)
@given(gxl_graphs())
def test_gxl_round_trip(g):
    back = parse_gxl(write_gxl(g).encode("utf-8"))
    assert back == g
    assert back.edges() == g.edges()
    assert (back.name, back._next_id) == (g.name, g._next_id)


def test_write_gxl_keeps_ids_and_writes_numbers_as_floats():
    # a point or edge label stores floats, so it is never written as
    # np.float64(1.5) or 2; a contracted graph shows the ids it kept
    g = Graph.from_parts("g", "K", [(2, Point2D(np.float64(1.5), 2)), (5, "Cl")],
                         [(2, 5, np.float64(1.5))])
    text = write_gxl(g)
    assert ('<node id="2"><attr name="x"><float>1.5</float></attr>'
            '<attr name="y"><float>2.0</float></attr></node>') in text
    assert '<edge from="2" to="5"><attr name="valence"><float>1.5</float></attr></edge>' in text
    back = parse_gxl(text)
    assert back == Graph.from_parts("g", None, [(0, Point2D(1.5, 2.0)), (1, "Cl")],
                                    [(0, 1, 1.5)])
    assert back.class_label is None  # IAM keeps the class in the CXL index


@pytest.mark.parametrize("name, symbol, message", [
    ("g", " C", "GXL strips a symbol's surrounding whitespace, so the symbol ' C' "
                "would not read back"),
    ("g", "C\n", "GXL strips a symbol's surrounding whitespace, so the symbol 'C\\n' "
                 "would not read back"),
    ("", "C", "GXL reads an empty graph id as no name, so a graph name cannot be empty"),
    ("g\x01", "C", "GXL cannot hold the graph name 'g\\x01': XML 1.0 has no character '\\x01'"),
    ("g", "x\x01", "GXL cannot hold the symbol 'x\\x01': XML 1.0 has no character '\\x01'"),
])
def test_write_gxl_refuses_what_would_not_read_back(name, symbol, message):
    g = Graph.from_parts(name, None, [(0, symbol)], [])
    with pytest.raises(ValueError) as exc:
        write_gxl(g)
    assert str(exc.value) == message


def test_write_gxl_round_trips_a_carriage_return():
    # a literal \r in XML text reads back as \n, so it is written as &#13;
    g = Graph.from_parts("a\rb", None, [(0, "a\rb"), (1, "c\r\nd")], [(0, 1, None)])
    text = write_gxl(g)
    assert "\r" not in text
    back = parse_gxl(text)
    assert back == g and back.name == "a\rb"


def make_index_dir(tmp_path, entries):
    for fname, symbol in entries:
        (tmp_path / fname).write_text(
            f"""<gxl><graph id="{fname.split('.')[0]}">
              <node id="n"><attr name="symbol"><string>{symbol}</string></attr></node>
            </graph></gxl>""")


def test_parse_cxl_index_happy_path(tmp_path):
    make_index_dir(tmp_path, [("g1.gxl", "C"), ("g2.gxl", "N"), ("g3.gxl", "O")])
    index = """<GraphCollection><fingerprints>
      <print file="g1.gxl" class="A"/>
      <print file="g2.gxl" class="B"/>
      <print file="g3.gxl" class="A"/>
    </fingerprints></GraphCollection>"""
    corpus = parse_cxl_index(index, tmp_path, name="toy", split=Split.TEST)
    assert corpus.name == "toy" and corpus.split is Split.TEST
    assert [g.name for g in corpus] == ["g1", "g2", "g3"]
    assert [g.class_label for g in corpus] == ["A", "B", "A"]
    assert len(corpus) == 3


def test_parse_cxl_index_aggregates_failures(tmp_path):
    make_index_dir(tmp_path, [("ok.gxl", "C")])
    (tmp_path / "bad.gxl").write_text("<gxl><graph id='x'>")
    index = """<X>
      <print file="ok.gxl" class="A"/>
      <print file="bad.gxl" class="A"/>
      <print file="gone.gxl" class="B"/>
    </X>"""
    with pytest.raises(CorpusLoadError) as exc:
        parse_cxl_index(index, tmp_path)
    msg = str(exc.value)
    assert "bad.gxl" in msg and "gone.gxl" in msg and "ok.gxl" not in msg
    assert len(exc.value.failures) == 2


def test_load_iam_corpus_names_every_file_with_a_bad_label(tmp_path):
    make_index_dir(tmp_path, [("ok.gxl", "C"), ("blank.gxl", " ")])
    (tmp_path / "valence.gxl").write_text("""<gxl><graph id="valence">
      <node id="a"><attr name="symbol"><string>C</string></attr></node>
      <node id="b"><attr name="symbol"><string>O</string></attr></node>
      <edge from="a" to="b"><attr name="valence"><float>inf</float></attr></edge>
    </graph></gxl>""")
    (tmp_path / "train.cxl").write_text("""<X>
      <print file="ok.gxl" class="A"/>
      <print file="blank.gxl" class="A"/>
      <print file="valence.gxl" class="B"/>
    </X>""")
    with pytest.raises(CorpusLoadError) as exc:
        load_iam_corpus(tmp_path / "train.cxl", Split.TRAIN)
    failures = exc.value.failures
    assert len(failures) == 2
    assert failures[0].startswith("blank.gxl:") and "[node 'n']" in failures[0]
    assert failures[1].startswith("valence.gxl:") and "[edge ('a', 'b')]" in failures[1]


def test_parse_cxl_index_lists_a_file_with_an_int_too_large_for_a_float(tmp_path):
    make_index_dir(tmp_path, [("ok.gxl", "C")])
    (tmp_path / "big.gxl").write_text(_gxl_doc(_valence(f"<int>{BIG}</int>")))
    index = '<X><print file="big.gxl" class="A"/><print file="ok.gxl" class="A"/></X>'
    with pytest.raises(CorpusLoadError) as exc:
        parse_cxl_index(index, tmp_path)
    assert exc.value.failures == [
        f"big.gxl: numeric edge label must be finite, got {BIG} [edge ('a', 'b')]"]


def test_parse_cxl_index_duplicate_names(tmp_path):
    make_index_dir(tmp_path, [("dup.gxl", "C")])
    index = """<X>
      <print file="dup.gxl" class="A"/>
      <print file="dup.gxl" class="B"/>
    </X>"""
    with pytest.raises(CorpusLoadError, match="duplicate graph name"):
        parse_cxl_index(index, tmp_path)


def test_parse_cxl_index_empty(tmp_path):
    corpus = parse_cxl_index("<GraphCollection/>", tmp_path)
    assert len(corpus) == 0


def test_load_iam_corpus_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_iam_corpus(tmp_path / "none.cxl", Split.TRAIN)


def test_locate_iam_indexes(tmp_path):
    d = tmp_path / "Letter" / "HIGH"
    d.mkdir(parents=True)
    (d / "train.cxl").write_text("<X/>")
    (d / "test.cxl").write_text("<X/>")
    train, test = locate_iam_indexes(tmp_path, "letter-high")
    assert train == d / "train.cxl" and test == d / "test.cxl"
    with pytest.raises(DatasetError, match="tried"):
        locate_iam_indexes(tmp_path, "aids")
    with pytest.raises(DatasetError, match="unknown dataset"):
        locate_iam_indexes(tmp_path, "letters")


def test_corpus_stats():
    c = Corpus("c", [cycle_graph(3), path_graph(3)])
    c.graphs[0].class_label = "A"
    c.graphs[1].class_label = "B"
    stats = corpus_stats(c)
    assert stats.graph_count == 2
    assert stats.avg_nodes == 3.0
    assert stats.avg_edges == 2.5
    assert stats.class_histogram == {"A": 1, "B": 1}
    empty = corpus_stats(Corpus("e"))
    assert empty.graph_count == 0 and empty.avg_nodes == 0.0
    d = stats.to_json_dict()
    assert d["class_histogram"] == {"A": 1, "B": 1}


def test_synthesize_is_deterministic():
    a = synthesize_letter_like(seed=7, count=12, classes=3, distortion=0.3)
    b = synthesize_letter_like(seed=7, count=12, classes=3, distortion=0.3)
    assert len(a) == 12
    for ga, gb in zip(a, b):
        assert ga == gb and ga.name == gb.name and ga.class_label == gb.class_label
    c = synthesize_letter_like(seed=8, count=12, classes=3, distortion=0.3)
    assert any(ga != gc for ga, gc in zip(a, c))


def test_synthesize_round_robin_classes():
    corpus = synthesize_letter_like(seed=1, count=7, classes=3, distortion=0.0)
    assert [g.class_label for g in corpus] == ["A", "B", "C", "A", "B", "C", "A"]
    hist = corpus_stats(corpus).class_histogram
    assert hist == {"A": 3, "B": 2, "C": 2}


def test_synthesize_distortion_zero_copies_prototype():
    corpus = synthesize_letter_like(seed=3, count=8, classes=4, distortion=0.0)
    by_class = {}
    for g in corpus:
        if g.class_label in by_class:
            assert g == by_class[g.class_label]
            assert astar_ged(g, by_class[g.class_label]).cost == 0.0
        else:
            by_class[g.class_label] = g


def test_synthesize_distortion_widens_within_class_distance():
    tight = synthesize_letter_like(seed=5, count=8, classes=2, distortion=0.1)
    loose = synthesize_letter_like(seed=5, count=8, classes=2, distortion=0.4)

    def mean_same_class_cost(corpus):
        costs = []
        graphs = list(corpus)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                if graphs[i].class_label == graphs[j].class_label:
                    costs.append(astar_ged(graphs[i], graphs[j]).cost)
        return sum(costs) / len(costs)

    assert mean_same_class_cost(loose) > mean_same_class_cost(tight)


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_letter_like(seed=1, count=0, classes=1, distortion=0.1)
    with pytest.raises(ValueError):
        synthesize_letter_like(seed=1, count=4, classes=0, distortion=0.1)
    with pytest.raises(ValueError):
        synthesize_letter_like(seed=1, count=4, classes=2, distortion=-0.5)
    # True would build one graph, and 2.5 would fail midway with a bare TypeError
    for count in (True, 2.5):
        with pytest.raises(ValueError, match=re.escape(f"count must be an int >= 1, got {count}")):
            synthesize_letter_like(seed=1, count=count, classes=2, distortion=0.1)
    with pytest.raises(ValueError, match="classes must be an int >= 1, got True"):
        synthesize_letter_like(seed=1, count=4, classes=True, distortion=0.1)
    with pytest.raises(ValueError, match="distortion must be finite"):
        synthesize_letter_like(seed=1, count=4, classes=2, distortion=float("inf"))


def test_synthesize_many_classes_get_distinct_names():
    corpus = synthesize_letter_like(seed=1, count=30, classes=30, distortion=0.0)
    names = {g.class_label for g in corpus}
    assert len(names) == 30


def test_split_corpus_stratified():
    corpus = synthesize_letter_like(seed=2, count=40, classes=4, distortion=0.2)
    train, test = split_corpus(corpus)
    assert len(train) == 20 and len(test) == 20
    assert train.split is Split.TRAIN and test.split is Split.TEST
    assert corpus_stats(train).class_histogram == {"A": 5, "B": 5, "C": 5, "D": 5}
    names = sorted(g.name for g in list(train) + list(test))
    assert names == sorted(g.name for g in corpus)
    # graph i is class i % 4 at per-class position i // 4; odd positions go to test
    assert [g.name for g in test] == [g.name for i, g in enumerate(corpus.graphs)
                                      if (i // 4) % 2 == 1]
    # an odd-sized class keeps the extra graph in train
    t5, s5 = split_corpus(synthesize_letter_like(seed=2, count=5, classes=1, distortion=0.2))
    assert [g.name for g in s5] == ["syn-A-0001", "syn-A-0003"]
    assert len(t5) == 3


def test_load_graph_file_reads_gxl_whatever_the_extension(tmp_path):
    gxl = tmp_path / "a.gxl"
    gxl.write_text(MOL_GXL)
    assert load_graph_file(gxl).name == "mol"
    txt = tmp_path / "b.txt"
    txt.write_text(write_gxl(cycle_graph(3)))
    back = load_graph_file(txt)
    assert back == cycle_graph(3) and back.name == "b"
    with pytest.raises(DatasetError, match="cannot read"):
        load_graph_file(tmp_path / "missing.gxl")


def test_load_graph_file_names_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.gxl"
    p.write_bytes(b'<gxl><graph id="caf\xe9"/></gxl>')
    with pytest.raises(GxlParseError) as exc:
        load_graph_file(p)
    assert exc.value.message == f"{p}: malformed XML: not well-formed (invalid token)"
    assert exc.value.location == "line 1, column 19"  # the 0-based offset of \xe9


def test_gxl_file_without_graph_id_uses_stem(tmp_path):
    p = tmp_path / "named.gxl"
    p.write_text("""<gxl><graph>
      <node id="n"><attr name="symbol"><string>C</string></attr></node>
    </graph></gxl>""")
    assert load_graph_file(p).name == "named"


def test_measures_work_on_synthetic_graphs():
    # spot check: every measure runs on every synthetic template shape
    from cged.centrality import compute_centrality

    corpus = synthesize_letter_like(seed=11, count=8, classes=8, distortion=0.0)
    for g in corpus:
        for measure in CentralityMeasure:
            scores = compute_centrality(g, measure).scores
            assert scores.keys() == set(g.nodes())
