"""Command-line interface: outputs, schemas, exit codes."""

import json
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from cged import CostModel, cli
from cged.centrality import CentralityMeasure
from cged.contraction import t_centrality_node_contraction
from cged.dataset import (DatasetError, load_graph_file, load_iam_corpus, locate_iam_indexes,
                          parse_gxl, write_gxl)
from cged.ged import Heuristic, SearchSpec, run_search
from cged.graph import Graph, Point2D
from cged.cli import EXIT_CONFIG, EXIT_DATASET, EXIT_PARSE, build_parser, main
from helpers import brute_force_ged, path_graph, star_graph


def validate_against(payload: dict, schema_name: str) -> None:
    schema = json.loads(
        (resources.files("cged") / "schemas" / schema_name).read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)


@pytest.fixture()
def graph_files(tmp_path):
    a = tmp_path / "a.gxl"
    a.write_text(write_gxl(path_graph(3)))
    moved = Graph()
    moved.add_node(Point2D(0.0, 0.0))
    moved.add_node(Point2D(1.0, 0.0))
    moved.add_node(Point2D(2.0, 0.5))
    moved.add_edge(0, 1)
    moved.add_edge(1, 2)
    b = tmp_path / "b.gxl"
    b.write_text(write_gxl(moved))
    empty = tmp_path / "empty.gxl"
    empty.write_text(write_gxl(Graph()))
    single = tmp_path / "single.gxl"
    single.write_text(write_gxl(Graph.from_parts(None, None, [(0, "C")], [])))
    return {"a": a, "b": b, "empty": empty, "single": single, "dir": tmp_path}


def test_contract_writes_graph_and_report(tmp_path, graph_files):
    star = tmp_path / "star.gxl"
    star.write_text(write_gxl(star_graph(4)))
    out_g = tmp_path / "out.gxl"
    out_r = tmp_path / "report.json"
    rc = main(["contract", str(star), "--t", "2",
               "--out-graph", str(out_g), "--out-report", str(out_r)])
    assert rc == 0
    # the kept nodes are written under their own ids
    assert [el.get("id") for el in ET.fromstring(out_g.read_bytes()).iter("node")] == [
        "0", "3", "4"]
    report = json.loads(out_r.read_text())
    validate_against(report, "contraction_report.json")
    assert [r["node"] for r in report["removed"]] == [1, 2]


def test_contract_t0_round_trips(tmp_path, graph_files):
    out_g = tmp_path / "same.gxl"
    rc = main(["contract", str(graph_files["a"]), "--out-graph", str(out_g),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 0
    assert parse_gxl(out_g.read_text()) == path_graph(3)


def test_contract_round_trips_a_gxl_graph_with_an_empty_id(tmp_path, capsys):
    gxl = tmp_path / "e.gxl"
    gxl.write_text('<gxl><graph id=""><node id="a"><attr name="symbol">'
                   '<string>C</string></attr></node></graph></gxl>')
    out_g = tmp_path / "e.out"
    assert main(["contract", str(gxl), "--out-graph", str(out_g),
                 "--out-report", str(tmp_path / "r.json")]) == 0
    assert main(["contract", str(out_g), "--out-report", str(tmp_path / "r2.json")]) == 0
    back = parse_gxl(capsys.readouterr().out)
    assert back.name == "e"  # named after the file, as a GXL graph without an id
    assert back == load_graph_file(gxl)


def _ring_molecule(symbols: list, tail: list) -> Graph:
    """An aromatic ring (valence 1.5) with a tail of single bonds off atom 0."""
    n = len(symbols)
    edges = [(i, (i + 1) % n, 1.5) for i in range(n)]
    edges += [(0 if i == 0 else n + i - 1, n + i, 1.0) for i in range(len(tail))]
    return Graph.from_parts("mol", None, list(enumerate(symbols + tail)), edges)


def _letter(shift: float) -> Graph:
    points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (1.0, 1.0), (1.0, 2.0), (3.0, 0.5)]
    return Graph.from_parts("letter", None,
                            [(i, Point2D(x + shift, y)) for i, (x, y) in enumerate(points)],
                            [(0, 1, None), (1, 2, None), (1, 3, None), (3, 4, None),
                             (2, 5, None)])


@pytest.mark.parametrize("graph, other", [
    (_ring_molecule(["C", "C", "N", "C", "C", "C"], ["O", "C"]),
     _ring_molecule(["C", "C", "C", "C", "N", "C"], ["S"])),
    (_letter(0.0), _letter(0.25)),
])
def test_contract_writes_gxl_that_searches_like_the_contracted_graph(tmp_path, capsys,
                                                                      graph, other):
    src, out, dst = tmp_path / "g.gxl", tmp_path / "small.gxl", tmp_path / "other.gxl"
    src.write_text(write_gxl(graph))
    dst.write_text(write_gxl(other))
    assert main(["contract", str(src), "--t", "2", "--measure", "betweenness",
                 "--out-graph", str(out), "--out-report", str(tmp_path / "r.json")]) == 0
    contracted, _ = t_centrality_node_contraction(graph, 2, CentralityMeasure.BETWEENNESS)
    kept = contracted.nodes()
    assert kept != list(range(len(kept)))  # so reading back renumbers
    # read back, the kept nodes keep their order and the edges follow their ranks
    back = load_graph_file(out)
    rank = {u: i for i, u in enumerate(kept)}
    assert back.node_items() == [(rank[u], label) for u, label in contracted.node_items()]
    assert back.edges() == [(rank[u], rank[v], label) for u, v, label in contracted.edges()]
    assert main(["ged", str(out), str(dst), "--out-json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = run_search(contracted, other, CostModel(), SearchSpec.astar())
    assert (payload["cost"], payload["expanded_nodes"]) == (want.cost, want.expanded_nodes)
    assert [op["kind"] for op in payload["path"]["operations"]] == [
        op.kind.value for op in want.path.operations]


def test_ged_human_output(capsys, graph_files):
    rc = main(["ged", str(graph_files["a"]), str(graph_files["b"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cost: 0.5" in out
    assert "search: astar(bipartite)" in out
    assert "operations" in out
    assert "backend:" not in out


def test_ged_json_validates_and_prices_the_move(capsys, graph_files):
    rc = main(["ged", str(graph_files["a"]), str(graph_files["b"]), "--out-json", "-"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    validate_against(payload, "ged_result.json")
    assert payload["search"] == "astar(bipartite)"
    assert payload["cost"] == pytest.approx(0.5)
    assert payload["path"]["total_cost"] == pytest.approx(0.5)
    assert payload["contraction_reports"] is not None


def test_ged_with_contraction_budget(capsys, graph_files):
    rc = main(["ged", str(graph_files["a"]), str(graph_files["b"]),
               "--t", "2", "--out-json", "-"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cost"] == 0.0
    removed = payload["contraction_reports"][0]["removed"]
    assert [r["node"] for r in removed] == [0, 2]


def test_ged_honors_config_file(tmp_path, capsys, graph_files):
    conf = tmp_path / "m.conf"
    conf.write_text("x_node = 0.9\n")
    rc = main(["ged", str(graph_files["empty"]), str(graph_files["single"]),
               "--config", str(conf), "--out-json", "-"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cost"] == pytest.approx(0.9)


def test_ged_beam_flags(capsys, graph_files):
    rc = main(["ged", str(graph_files["a"]), str(graph_files["b"]),
               "--beam-width", "3", "--out-json", "-"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["search"] == "beam(w=3)"
    assert payload["cost"] >= 0.5 - 1e-9
    rc = main(["ged", str(graph_files["a"]), str(graph_files["b"]), "--beam-width", "10"])
    assert rc == 0
    assert "search: beam(w=10)" in capsys.readouterr().out


def test_ged_search_flags_are_the_search_spec_fields(tmp_path, capsys, graph_files):
    a, b = graph_files["a"], graph_files["b"]
    g1, g2 = load_graph_file(a), load_graph_file(b)
    out = tmp_path / "result.json"
    for w, heuristic in ((None, None), (None, Heuristic.ZERO), (3, None)):
        flags = [] if w is None else ["--beam-width", str(w)]
        flags += [] if heuristic is None else ["--heuristic", heuristic.value]
        assert main(["ged", str(a), str(b), *flags, "--out-json", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        spec = SearchSpec(w, heuristic)
        want = run_search(g1, g2, CostModel(), spec)
        assert (payload["cost"], payload["expanded_nodes"], payload["search"]) == (
            want.cost, want.expanded_nodes, spec.describe())
    # the old search kind and output flags are unknown, not prefixes
    for flags in (["--search", "beam"], ["--json"], ["--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            main(["ged", str(a), str(b), *flags])
        assert exc.value.code == 2


def test_search_agrees_with_brute_force_on_cli_fixtures(graph_files):
    names = ("a", "b", "empty", "single")
    graphs = {n: load_graph_file(graph_files[n]) for n in names}
    for n1 in names:
        for n2 in names:
            g1, g2 = graphs[n1], graphs[n2]
            exact = brute_force_ged(g1, g2, CostModel())
            for heuristic in Heuristic:
                cost = run_search(g1, g2, CostModel(), SearchSpec.astar(heuristic)).cost
                assert cost == pytest.approx(exact, abs=1e-9), (n1, n2, heuristic)


def test_benchmark_outputs(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    out_json = tmp_path / "bench.json"
    rc = main(["benchmark", "--dataset", "synthetic", "--syn-count", "8",
               "--syn-classes", "2", "--syn-distortion", "0.2", "--sample", "3",
               "--measures", "degree,pagerank", "--levels", "T0,T1*",
               "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == 0
    assert out_csv.read_text().count("\n") == 1 + 3 * 2 * 2
    summary = json.loads(out_json.read_text())
    validate_against(summary, "benchmark_summary.json")
    assert summary["records"] == 12
    assert summary["sample"] == 3
    table = capsys.readouterr().out
    assert "degree" in table and "pagerank" in table


@pytest.mark.parametrize("flag, values, repeated", [
    ("--levels", "T1,T1*", "level T1*"),
    ("--levels", "T0,t2star,T2*", "level T2*"),
    ("--measures", "degree,pagerank,degree", "measure degree"),
])
def test_benchmark_rejects_a_repeated_measure_or_level(tmp_path, capsys, flag, values,
                                                       repeated):
    out_csv, out_json = tmp_path / "bench.csv", tmp_path / "bench.json"
    rc = main(["benchmark", "--dataset", "synthetic", "--syn-count", "6", "--sample", "3",
               flag, values, "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == EXIT_CONFIG
    assert f"{repeated} is given more than once" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_classify_perfect_at_zero_distortion(tmp_path, capsys):
    out_json = tmp_path / "cls.json"
    rc = main(["classify", "--dataset", "synthetic", "--syn-count", "12",
               "--syn-classes", "3", "--syn-distortion", "0",
               "--out-json", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    validate_against(payload, "classification_result.json")
    assert payload["accuracy"] == 1.0
    assert payload["pairs"] == 6 * 6
    assert (6 <= payload["searches"] <= payload["bounds"] <= payload["hausdorff_bounds"]
            <= payload["pairs"])
    out = capsys.readouterr().out
    assert "accuracy: 1.0000" in out
    assert (f"searched {payload['searches']} of 36 pairs, {payload['bounds']} bounds, "
            f"{payload['hausdorff_bounds']} Hausdorff bounds") in out


def test_workers_below_one_exit_config_error(tmp_path, capsys):
    for workers in ("0", "-3"):
        rc = main(["classify", "--dataset", "synthetic", "--syn-count", "8",
                   "--workers", workers, "--out-json", str(tmp_path / "out.json")])
        assert rc == EXIT_CONFIG
        assert "workers must be an int >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_benchmark_takes_no_workers_flag(tmp_path, capsys):
    # the timing grid runs in the calling process only
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--dataset", "synthetic", "--syn-count", "8", "--sample", "2",
              "--workers", "2", "--out-json", str(tmp_path / "out.json"),
              "--out-csv", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stats_output(capsys):
    rc = main(["stats", "--dataset", "synthetic", "--syn-count", "10",
               "--syn-classes", "2", "--split", "train"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # 5 per class, fraction 0.5: 2 of each class go to test, 3 stay in train
    assert payload["graph_count"] == 6
    assert payload["split"] == "train"
    assert payload["class_histogram"] == {"A": 3, "B": 3}


@pytest.mark.parametrize("command", ["oracle-ged", "bench-backends"])
def test_removed_subcommands_are_unknown(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--recompute", "--strict-slots"])
@pytest.mark.parametrize("command", ["contract", "ged"])
def test_removed_contraction_flags_are_rejected(capsys, graph_files, command, flag):
    a = str(graph_files["a"])
    files = [a] if command == "contract" else [a, a]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--t", "1", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.gxl"
    bad.write_text("<gxl><graph id='x'>")
    rc = main(["ged", str(bad), str(bad)])
    assert rc == EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    # a file that is not UTF-8 is unparsable too, and named
    latin1 = tmp_path / "latin1.gxl"
    latin1.write_bytes(b'<gxl><graph id="caf\xe9"/></gxl>')
    for argv in (["contract", str(latin1)], ["ged", str(latin1), str(latin1)]):
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {latin1}: malformed XML: not well-formed (invalid token) "
            "[line 1, column 19]\n")


@pytest.mark.parametrize("name, text, message", [
    # the XML location is given once, in brackets
    ("bad.gxl", "<gxl>", "malformed XML: no element found [line 1, column 5]"),
    ("bad.gxl", "<gxl><graph id='g'><node id='a'/></graph></gxl>",
     "node attributes match neither the symbol nor the x/y schema [node 'a']"),
    # every file parses as GXL, whatever its extension
    ("bad.txt", "node 0 symbol C\n", "malformed XML: syntax error [line 1, column 0]"),
])
def test_parse_errors_name_the_file(tmp_path, capsys, graph_files, name, text, message):
    bad = tmp_path / name
    bad.write_text(text)
    ok = str(graph_files["a"])
    for files in ([str(bad), ok], [ok, str(bad)]):
        assert main(["ged", *files]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


GOOD_NODE = '<attr name="symbol"><string>C</string></attr>'


@pytest.mark.parametrize("command", ["contract", "ged"])
@pytest.mark.parametrize("node_attrs, edge_attrs, where", [
    ('<attr name="x"><float>inf</float></attr><attr name="y"><float>0</float></attr>', "",
     "node 'b'"),
    ('<attr name="x"><string>left</string></attr><attr name="y"><float>0</float></attr>', "",
     "node 'b'"),
    ('<attr name="symbol"><string> </string></attr>', "", "node 'b'"),
    (GOOD_NODE, '<attr name="valence"><float>nan</float></attr>', "edge ('a', 'b')"),
    (GOOD_NODE, '<attr name="valence"><string>double</string></attr>', "edge ('a', 'b')"),
])
def test_bad_gxl_label_value_is_a_parse_error(tmp_path, capsys, command, node_attrs,
                                              edge_attrs, where):
    bad = tmp_path / "bad.gxl"
    bad.write_text(f"""<gxl><graph id="g">
      <node id="a">{GOOD_NODE}</node>
      <node id="b">{node_attrs}</node>
      <edge from="a" to="b">{edge_attrs}</edge>
    </graph></gxl>""")
    files = [str(bad)] if command == "contract" else [str(bad), str(bad)]
    assert main([command, *files]) == EXIT_PARSE
    assert f"[{where}]" in capsys.readouterr().err


def test_exit_code_dataset_errors(tmp_path, capsys, monkeypatch, graph_files):
    rc = main(["ged", str(tmp_path / "nope.txt"), str(graph_files["a"])])
    assert rc == EXIT_DATASET
    monkeypatch.delenv("CGED_DATA_ROOT", raising=False)
    rc = main(["stats", "--dataset", "letter-high"])
    assert rc == EXIT_DATASET
    rc = main(["stats", "--dataset", "letter-high", "--data-root", str(tmp_path)])
    assert rc == EXIT_DATASET
    rc = main(["classify", "--dataset", "synthetic", "--train-index", "only.cxl"])
    assert rc == EXIT_DATASET
    assert "together" in capsys.readouterr().err


def test_dataset_choices_are_the_iam_layouts(tmp_path):
    """Every ``--dataset`` choice but ``synthetic`` is a name
    :func:`locate_iam_indexes` knows, and it knows no other."""
    commands = build_parser()._subparsers._group_actions[0].choices
    choices = {name: action.choices for name, p in commands.items()
               for action in p._actions if "--dataset" in action.option_strings}
    assert set(choices) == {"benchmark", "classify", "stats"}
    with pytest.raises(DatasetError, match="unknown dataset") as unknown:
        locate_iam_indexes(tmp_path, "no-such-corpus")
    known = str(unknown.value).split("known: ", 1)[1].split(", ")
    for names in choices.values():
        assert names[0] == "synthetic"
        assert sorted(names[1:]) == sorted(known)
        for name in names[1:]:
            with pytest.raises(DatasetError, match="not found under"):
                locate_iam_indexes(tmp_path, name)


def test_exit_code_config_errors(tmp_path, capsys, graph_files):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense = 1\n")
    a = str(graph_files["a"])
    assert main(["ged", a, a, "--config", str(conf)]) == EXIT_CONFIG
    assert main(["ged", a, a, "--beam-width", "0"]) == EXIT_CONFIG
    assert main(["ged", a, a, "--t", "-2"]) == EXIT_CONFIG
    # beam runs without a heuristic, so asking for one must not be ignored
    assert main(["ged", a, a, "--beam-width", "10", "--heuristic", "bipartite"]) == EXIT_CONFIG
    assert main(["ged", a, a, "--beam-width", "10", "--heuristic", "zero"]) == 0
    # the removed count bound is no longer a choice
    with pytest.raises(SystemExit) as exc:
        main(["ged", a, a, "--heuristic", "count_bound"])
    assert exc.value.code == 2
    missing = tmp_path / "missing.conf"
    assert main(["ged", a, a, "--config", str(missing)]) == EXIT_CONFIG
    # a cost-model file holds the four edit costs only: search options and
    # label distances in it are unknown keys, under either search
    for text in ("heuristic = bipartite", "heuristic = zero", "heuristic = count_bound",
                 "beam_width = 3", "node_label_distance = euclidean",
                 "edge_label_distance = absolute"):
        conf.write_text(text + "\n")
        for search in ([], ["--beam-width", "10"]):
            assert main(["ged", a, a, *search, "--config", str(conf)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "line 1: unknown key" in err and str(conf) in err


def write_iam_split(d, split, symbols):
    entries = []
    for i, symbol in enumerate(symbols):
        name = f"{split}{i}"
        (d / f"{name}.gxl").write_text(f"""<gxl><graph id="{name}">
          <node id="a"><attr name="symbol"><string>{symbol}</string></attr></node>
          <node id="b"><attr name="symbol"><string>O</string></attr></node>
          <edge from="a" to="b"/>
        </graph></gxl>""")
        entries.append(f'<print file="{name}.gxl" class="{symbol}"/>')
    index = d / f"{split}.cxl"
    index.write_text(f"<GraphCollection>{''.join(entries)}</GraphCollection>")
    return index


@pytest.mark.parametrize("command", ["stats", "benchmark"])
@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("layout", ["iam", "index-flags"])
def test_single_split_commands_load_only_that_split(tmp_path, monkeypatch, command, split,
                                                    layout):
    d = tmp_path / "Letter" / "HIGH"
    d.mkdir(parents=True)
    index = {s: write_iam_split(d, s, ["C", "N"]) for s in ("train", "test")}
    loaded = []

    def counting_load(path, which):
        loaded.append((Path(path), which.value))
        return load_iam_corpus(path, which)

    monkeypatch.setattr(cli, "load_iam_corpus", counting_load)
    if layout == "iam":
        source = ["--dataset", "letter-high", "--data-root", str(tmp_path)]
    else:
        source = ["--train-index", str(index["train"]), "--test-index", str(index["test"])]
    extra = {"stats": [],
             "benchmark": ["--sample", "1", "--measures", "degree", "--levels", "T0",
                           "--out-csv", str(tmp_path / "b.csv"),
                           "--out-json", str(tmp_path / "b.json")]}[command]
    assert main([command, *source, "--split", split, *extra]) == 0
    assert loaded == [(index[split], split)]


def test_knn_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--dataset", "synthetic", "--knn", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ged", "one-file-only"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cged" in capsys.readouterr().out


def test_help_mentions_examples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "letter-high" in out and "synthetic" in out and "aids" in out
