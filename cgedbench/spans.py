"""In-memory spans around cged's public layer entry points.

A :class:`Tracer` replaces each traced function with a wrapper for the
duration of a ``with tracer.installed():`` block and puts the originals
back afterwards. Every call becomes a span with a start, an end and the
span that was open when it began. Spans are folded into per-name and
per-(parent, name) totals as they close, so memory does not grow with the
number of calls, and the totals are written out when the benchmark ends.

A span's self time is its duration minus the time covered by its child
spans. Spans do not cross process boundaries: a traced run must do its
work in this process.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from cged import centrality, contraction, dataset, evaluation, ged, graph, kernels

perf_counter = time.perf_counter


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def _count_expansions(tracer: "Tracer", result) -> None:
    tracer.counts["ged.expanded"] += result.expanded_nodes


def _count_iterations(tracer: "Tracer", scores) -> None:
    tracer.counts["centrality.iterations"] += scores.iterations_used


def _count_contraction(tracer: "Tracer", out) -> None:
    report = out[1]
    tracer.counts["contraction.removed"] += len(report.removed)
    tracer.counts["contraction.skipped"] += len(report.skipped_cut_vertices)


def _count_graphs(tracer: "Tracer", corpus) -> None:
    tracer.counts["dataset.graphs"] += len(corpus.graphs)


# (owner, attribute, span name, result hook). The owner is the namespace the
# caller looks the name up in, so a function imported by name into another
# module is patched where it is used.
TARGETS = (
    (dataset, "load_iam_corpus", "dataset.load", _count_graphs),
    (evaluation, "t_star_levels", "evaluation.t_star_levels", None),
    (evaluation, "t_centrality_node_contraction", "contraction", _count_contraction),
    (contraction, "compute_centrality", "centrality", _count_iterations),
    (graph.Graph, "articulation_points", "graph.articulation_points", None),
    (kernels, "betweenness_counts", "kernels.betweenness", None),
    (ged, "astar_ged", "ged.search", _count_expansions),
    (ged, "beam_ged", "ged.search", _count_expansions),
    (kernels, "extend_costs", "kernels.extend_costs", None),
)

COUNTERS = ("ged.expanded", "centrality.iterations", "contraction.removed",
            "contraction.skipped", "dataset.graphs")


class Tracer:
    """Span totals for one traced stretch of work."""

    def __init__(self) -> None:
        self.totals: dict[str, SpanTotals] = {}
        self.edges: dict[tuple[str, str], SpanTotals] = {}
        self.counts = {name: 0 for name in COUNTERS}
        self._open: list[list] = []  # [name, seconds covered by children]

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else ""
            frame = [name, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][1] += seconds
                for totals in (self.totals.setdefault(name, SpanTotals()),
                               self.edges.setdefault((parent, name), SpanTotals())):
                    totals.calls += 1
                    totals.seconds += seconds
                    totals.self_seconds += seconds - frame[1]
            if hook is not None:
                hook(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def span(self, name: str) -> SpanTotals:
        return self.totals.get(name, SpanTotals())

    def tree(self) -> list[dict]:
        """Per-(parent, span) totals, for the trace file."""
        return [
            {"parent": parent, "span": name, "calls": t.calls,
             "seconds": t.seconds, "self_seconds": t.self_seconds}
            for (parent, name), t in sorted(self.edges.items())
        ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced round (the load is reported apart)."""
    ext = tracer.span("kernels.extend_costs")
    search = tracer.span("ged.search")
    cen = tracer.span("centrality")
    btw = tracer.span("kernels.betweenness")
    con = tracer.span("contraction")
    art = tracer.span("graph.articulation_points")
    tsl = tracer.span("evaluation.t_star_levels")
    expanded = tracer.counts["ged.expanded"]
    return {
        "kernels.extend_costs.calls": ext.calls,
        "kernels.extend_costs.s": ext.seconds,
        "kernels.extend_costs.us_per_call": 1e6 * ext.seconds / ext.calls if ext.calls else 0.0,
        "ged.search.calls": search.calls,
        "ged.search.s": search.seconds,
        "ged.self.s": search.self_seconds,
        "ged.expanded": expanded,
        "ged.expanded_per_s": expanded / search.seconds if search.seconds else 0.0,
        "centrality.calls": cen.calls,
        "centrality.s": cen.self_seconds,
        "centrality.iterations": tracer.counts["centrality.iterations"],
        "kernels.betweenness.calls": btw.calls,
        "kernels.betweenness.s": btw.seconds,
        "contraction.calls": con.calls,
        "contraction.s": con.self_seconds,
        "contraction.removed": tracer.counts["contraction.removed"],
        "contraction.skipped": tracer.counts["contraction.skipped"],
        "graph.articulation_points.calls": art.calls,
        "graph.articulation_points.s": art.seconds,
        "evaluation.t_star_levels.calls": tsl.calls,
        "evaluation.t_star_levels.s": tsl.seconds,
    }
