"""File formats, corpus loading, the synthetic corpus and splits."""

import pytest

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
    parse_debug_graph,
    parse_gxl,
    split_corpus,
    synthesize_letter_like,
    write_debug_graph,
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
    with pytest.raises(GxlParseError, match="duplicate node id"):
        parse_gxl("""<graph id="g">
          <node id="n"><attr name="symbol"><string>C</string></attr></node>
          <node id="n"><attr name="symbol"><string>C</string></attr></node>
        </graph>""")
    with pytest.raises(GxlParseError, match="without an id"):
        parse_gxl("<graph id='g'><node/></graph>")
    with pytest.raises(GxlParseError, match="self-loop"):
        parse_gxl("""<graph id="g">
          <node id="n"><attr name="symbol"><string>C</string></attr></node>
          <edge from="n" to="n"/>
        </graph>""")


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
    with pytest.raises(GxlParseError, match="without a name"):
        parse_gxl("""<graph id="g">
          <node id="n"><attr><string>C</string></attr></node>
        </graph>""")
    with pytest.raises(GxlParseError, match="attr 'x'"):
        parse_gxl("""<graph id="g">
          <node id="n">
            <attr name="x"><float>wide</float></attr>
            <attr name="y"><float>0</float></attr>
          </node>
        </graph>""")


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


def test_debug_format_round_trip():
    g = Graph.from_parts("gg", "K",
                         [(0, Point2D(0.125, -2.5)), (3, "Cl"), (7, Point2D(1e-7, 4.0))],
                         [(0, 3, None), (3, 7, 1.75)])
    text = write_debug_graph(g)
    back = parse_debug_graph(text)
    assert back == g
    assert back.name == "gg" and back.class_label == "K"
    assert back.nodes() == [0, 3, 7]


def test_debug_format_none_metadata_and_comments():
    g = path_graph(2)
    text = write_debug_graph(g)
    assert text.startswith("graph - -\n")
    back = parse_debug_graph("# hello\n\n" + text)
    assert back == g and back.name is None


def test_debug_format_rejections():
    with pytest.raises(GxlParseError, match="missing 'graph' header"):
        parse_debug_graph("node 0 symbol C\n")
    with pytest.raises(GxlParseError, match="line 2"):
        parse_debug_graph("graph - -\nnode zero symbol C\n")
    with pytest.raises(GxlParseError, match="line 2"):
        parse_debug_graph("graph - -\nblob 1 2\n")
    with pytest.raises(GxlParseError, match="not in the graph"):
        parse_debug_graph("graph - -\nnode 0 symbol C\nedge 0 1\n")
    with pytest.raises(ValueError, match="whitespace-free"):
        write_debug_graph(Graph(name="two words"))
    # '-' is how the format writes an unset name or class
    with pytest.raises(ValueError, match="cannot be '-'"):
        write_debug_graph(Graph(name="-"))
    with pytest.raises(ValueError, match="cannot be '-'"):
        write_debug_graph(Graph(name="g", class_label="-"))
    # a symbol '-' is no header field, so it still round-trips
    dash = Graph.from_parts("g", None, [(0, "-")], [])
    assert parse_debug_graph(write_debug_graph(dash)) == dash


def test_load_graph_file_dispatch(tmp_path):
    gxl = tmp_path / "a.gxl"
    gxl.write_text(MOL_GXL)
    g = load_graph_file(gxl)
    assert g.name == "mol"
    txt = tmp_path / "b.txt"
    txt.write_text(write_debug_graph(cycle_graph(3)))
    assert load_graph_file(txt) == cycle_graph(3)
    with pytest.raises(DatasetError, match="cannot read"):
        load_graph_file(tmp_path / "missing.gxl")


def test_load_graph_file_names_a_debug_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"graph caf\xe9 A\nnode 0 symbol C\n")
    with pytest.raises(GxlParseError, match="latin1.txt is not UTF-8 text") as exc:
        load_graph_file(p)
    assert exc.value.location == "byte 9"


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
