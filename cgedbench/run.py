"""Seeded benchmark of cged: three workloads, oracle-checked, with a traced mode.

Run from the root of a checkout:

    python3 cgedbench/run.py --workload letter-grid --seed 1 --seconds 25 --trace 0

The seed fixes every input. The inputs are written as GXL files and CXL
indexes under ``.cgedbench/work/`` and loaded through cged's own loader;
the directory is removed when the run ends. Rounds repeat until the next
one would overrun ``--seconds`` (at least one always runs). Every timing is
scaled to a fixed machine speed by the probe in ``stopwatch.py``; the
unscaled wall-clock figures are printed too. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it print the same
run's figures under their per-workload names. A copy of the result, and
with ``--trace 1`` the span totals, goes to ``.cgedbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "cged" / "__init__.py").is_file():
    sys.exit(f"cged sources not found under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from cged import kernels  # noqa: E402

import spans  # noqa: E402
from stopwatch import NOMINAL_PROBE_S, Stopwatch  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

perf_counter = time.perf_counter
SETUP_REPEATS = 21
OUT_DIR = ROOT / ".cgedbench" / "out"
WORK_DIR = ROOT / ".cgedbench" / "work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "reference_ops_per_s": "1/s",
    "fast_ops_per_s": "1/s",
    "agreement": "ratio",
}

PER_LAYER_UNITS = {
    "kernels.extend_costs.calls": "count",
    "kernels.extend_costs.s": "s",
    "kernels.extend_costs.us_per_call": "us",
    "ged.search.calls": "count",
    "ged.search.s": "s",
    "ged.self.s": "s",
    "ged.expanded": "count",
    "ged.expanded_per_s": "1/s",
    "centrality.calls": "count",
    "centrality.s": "s",
    "centrality.iterations": "count",
    "kernels.betweenness.calls": "count",
    "kernels.betweenness.s": "s",
    "contraction.calls": "count",
    "contraction.s": "s",
    "contraction.removed": "count",
    "contraction.skipped": "count",
    "graph.articulation_points.calls": "count",
    "graph.articulation_points.s": "s",
    "evaluation.t_star_levels.calls": "count",
    "evaluation.t_star_levels.s": "s",
    "dataset.load_s": "s",
    "dataset.graphs": "count",
    "trace.overhead": "ratio",
}


def set_up(wl, indexes: list[Path], traced: bool, watch: Stopwatch):
    """Load the inputs SETUP_REPEATS times, timed as path "setup"; return
    (corpora, tracers)."""
    tracers = []

    def load(tracer):
        if traced:
            with tracer.installed():
                corpora = wl.load(indexes)
        else:
            corpora = wl.load(indexes)
        kernels.warm_up()
        return corpora

    for _ in range(SETUP_REPEATS):
        tracers.append(spans.Tracer())
        corpora = watch.time("setup", 1, load, tracers[-1])
    return corpora, tracers


def one_round(wl, corpora, traced: bool, watch: Stopwatch) -> tuple[Round, float]:
    """Run one round; a round that raises counts all its operations as failed."""
    rnd = wl.plan(corpora, traced)
    start = perf_counter()
    try:
        wl.round(corpora, rnd, traced, watch)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rnd.failed = rnd.attempted
        rnd.outputs = None
    return rnd, perf_counter() - start


def repeat(seconds: float, step) -> list:
    """Call step() until the next call would likely overrun; at least once."""
    results = []
    start = perf_counter()
    while True:
        results.append(step())
        elapsed = perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def rate(ops: int, seconds: float) -> float:
    return ops / seconds if ops and seconds > 0 else math.nan


def wall_figures(watch: Stopwatch) -> dict:
    """The unscaled figures, and how fast the machine ran against the nominal speed."""
    out = {"setup_wall_s": (median(watch.wall_seconds("setup")), "s"),
           "probe_speed": (NOMINAL_PROBE_S / median(watch.probes), "ratio")}
    for path in ("reference", "fast"):
        if watch.ops(path):
            out[f"{path}_wall_ops_per_s"] = (rate(watch.ops(path), sum(watch.wall_seconds(path))),
                                             "1/s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    wl = WORKLOADS[workload](seed)
    watch = Stopwatch()
    workdir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        indexes = wl.write_inputs(workdir)
        corpora, load_tracers = set_up(wl, indexes, trace, watch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = {}
    if not trace:
        rounds = [r for r, _ in repeat(seconds, lambda: one_round(wl, corpora, False, watch))]
        watch.close()
        metrics = {"setup_s": median(watch.scaled_seconds("setup"))}
    else:
        def traced_pair():
            plain, plain_s = one_round(wl, corpora, True, watch)
            tracer = spans.Tracer()
            with tracer.installed():
                traced, traced_s = one_round(wl, corpora, True, watch)
            return plain, plain_s, traced, traced_s, tracer

        pairs = repeat(seconds, traced_pair)
        watch.close()
        rounds = [r for p in pairs for r in (p[0], p[2])]
        layers = [spans.layer_metrics(p[4]) for p in pairs if p[2].outputs is not None]
        metrics = {}
        if layers:
            metrics = {name: median(m[name] for m in layers) for name in layers[0]}
        metrics["dataset.load_s"] = median(t.span("dataset.load").seconds for t in load_tracers)
        metrics["dataset.graphs"] = load_tracers[0].counts["dataset.graphs"]
        metrics["trace.overhead"] = median(p[3] for p in pairs) / median(p[1] for p in pairs)
        extra["spans"] = {"load": load_tracers[0].tree(), "round": pairs[-1][4].tree()}

    good = [r for r in rounds if r.outputs is not None]
    if not good:
        raise RuntimeError("every round failed; nothing to measure")
    problems = wl.check(corpora, good, trace)
    if any(r.outputs != good[0].outputs for r in good[1:]):
        problems.append("rounds disagree: outputs are not deterministic")
    if not trace:
        metrics["reference_ops_per_s"] = watch.rate("reference")
        metrics["fast_ops_per_s"] = watch.rate("fast")
        metrics["agreement"] = wl.agreement(good[0])
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = [name for name in units if math.isnan(metrics.get(name, math.nan))]
    if missing:
        raise RuntimeError(f"not measured: {', '.join(missing)}")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, {**wl.figures(good[0], metrics), **wall_figures(watch)}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, figures, extra = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in sorted(figures.items()):
        print(f"{args.workload} {name} {value:.6g} {unit}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"args": vars(args), "backend": kernels.backend_name(), "result": result,
                    "figures": figures, **extra}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
