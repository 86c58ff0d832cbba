"""The benchmark's traced run patches cged by attribute name: every name it
patches must be defined on, or imported into, the namespace it patches, and
every hook must read what its target returns."""

import importlib.util
import sys
from pathlib import Path

from cged import dataset, evaluation
from cged.centrality import CentralityMeasure
from cged.ged import SearchSpec
from cged.graph import Graph, Point2D

SPANS = Path(__file__).resolve().parent.parent / "cgedbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("cgedbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_is_in_its_owners_namespace():
    targets = load_spans().TARGETS
    assert targets
    for owner, attr, span, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {span!r})"


def _letter_gxl(name: str, points: list, edges: list) -> str:
    return dataset.write_gxl(Graph.from_parts(
        name, None, [(i, Point2D(x, y)) for i, (x, y) in enumerate(points)],
        [(u, v, None) for u, v in edges]))


def test_every_hook_reads_a_real_return_value(tmp_path):
    # a cold run that reaches every traced name: a fresh corpus, so every
    # walk computes a centrality and contracts; T1* removes the path's ends
    # and the star's leaves
    (tmp_path / "path.gxl").write_text(_letter_gxl(
        "path", [(float(i), 0.0) for i in range(5)], [(i, i + 1) for i in range(4)]))
    (tmp_path / "star.gxl").write_text(_letter_gxl(
        "star", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], [(0, 1), (0, 2), (0, 3)]))
    (tmp_path / "train.cxl").write_text(
        '<GraphCollection><fingerprints><print file="path.gxl" class="A"/>'
        '<print file="star.gxl" class="B"/></fingerprints></GraphCollection>')
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        corpus = dataset.load_iam_corpus(tmp_path / "train.cxl", dataset.Split.TRAIN)
        for search in (SearchSpec.astar(), SearchSpec.beam(3)):
            evaluation.run_timing_benchmark(
                corpus, [CentralityMeasure.BETWEENNESS],
                [evaluation.TLevel.T0, evaluation.TLevel.T1STAR], search, 1, 0)
        corpus.graphs[0].articulation_points()  # no pipeline step calls it
    assert {name for _, _, name, _ in spans.TARGETS} == {
        name for name, totals in tracer.totals.items() if totals.calls}
    assert tracer.counts["dataset.graphs"] == 2
    assert tracer.counts["contraction.removed"] > 0
    assert tracer.counts["ged.expanded"] > 0
    assert spans.layer_metrics(tracer)["contraction.calls"] == 2
