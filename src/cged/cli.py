"""Command-line front end.

Subcommands: ``contract`` (contract one graph file), ``ged`` (edit distance
between two graph files), ``benchmark`` (timing/expansion grid over a
corpus, written as CSV plus a JSON summary), ``classify`` (nearest-neighbor
classification) and ``stats`` (corpus statistics).

Graph files are GXL documents, whatever their extension; ``contract``
writes its result as GXL too. Corpora come either from a downloaded
archive (located by ``--data-root`` or the ``CGED_DATA_ROOT`` environment
variable) or from the deterministic synthetic generator (``--dataset
synthetic``, the default).

Exit codes: 0 success, 2 usage error, 3 graph parse error,
4 configuration error, 5 dataset resolution or load error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .centrality import CentralityMeasure
from .contraction import t_centrality_node_contraction
from .costs import CostModel, load_cost_config
from .dataset import (
    Corpus,
    DatasetError,
    GxlParseError,
    Split,
    _IAM_LAYOUTS,
    corpus_stats,
    load_graph_file,
    load_iam_corpus,
    locate_iam_indexes,
    split_corpus,
    synthesize_letter_like,
    write_gxl,
)
from .evaluation import (
    nn_classify,
    parse_level,
    run_timing_benchmark,
    summarize_benchmark,
    write_benchmark_csv,
)
from .ged import Heuristic, SearchSpec, t_centrality_ged

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_CONFIG = 4
EXIT_DATASET = 5

_DATASETS = ("synthetic", *_IAM_LAYOUTS)


# ----------------------------------------------------------------------
# shared argument plumbing
# ----------------------------------------------------------------------

def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="cost-model file: the four edit costs as 'key = value' lines "
                        "(see README)")
    p.add_argument("--search", choices=("astar", "beam"), default="astar",
                   help="exact best-first search or width-limited beam (default: astar)")
    p.add_argument("--beam-width", type=int, default=None, metavar="W",
                   help="open-list width, --search beam only (default: 10)")
    p.add_argument("--heuristic", choices=[h.value for h in Heuristic], default=None,
                   help="lower bound added to accumulated cost; astar only "
                        "(default: bipartite)")


def _load_config(args) -> CostModel:
    if not args.config:
        return CostModel()
    try:
        return load_cost_config(args.config)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"bad config {args.config}: {exc}") from None


def _search_from_args(args) -> tuple[CostModel, SearchSpec]:
    cm = _load_config(args)
    # unset: each search kind takes its own default, while a named one that
    # beam would ignore is rejected by SearchSpec
    heuristic = Heuristic(args.heuristic) if args.heuristic else None
    if args.search == "beam":
        width = args.beam_width if args.beam_width is not None else 10
        return cm, SearchSpec(width, heuristic)
    if args.beam_width is not None:
        raise ValueError("--beam-width applies only to --search beam")
    return cm, SearchSpec(None, heuristic)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=_DATASETS, default="synthetic",
                   help="corpus source (default: synthetic)")
    p.add_argument("--data-root", default=None, metavar="DIR",
                   help="root of the downloaded corpora (default: $CGED_DATA_ROOT)")
    p.add_argument("--train-index", default=None, metavar="CXL",
                   help="explicit train index file (overrides --dataset layout)")
    p.add_argument("--test-index", default=None, metavar="CXL",
                   help="explicit test index file (overrides --dataset layout)")
    p.add_argument("--syn-count", type=int, default=64, metavar="N",
                   help="synthetic corpus size (default: 64)")
    p.add_argument("--syn-classes", type=int, default=4, metavar="K",
                   help="synthetic class count (default: 4)")
    p.add_argument("--syn-distortion", type=float, default=0.3, metavar="D",
                   help="synthetic noise scale (default: 0.3)")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for synthesis and pair sampling (default: 42)")


def _data_root(args) -> Path:
    root = args.data_root or os.environ.get("CGED_DATA_ROOT")
    if not root:
        raise DatasetError(
            "no dataset root: pass --data-root or set CGED_DATA_ROOT "
            "(or use --dataset synthetic)")
    return Path(root)


def _resolve_corpora(args, *splits: Split) -> list[Corpus]:
    """The corpora of the given splits per the dataset flags; no other split
    is loaded."""
    if args.train_index or args.test_index:
        if not (args.train_index and args.test_index):
            raise DatasetError("--train-index and --test-index must be given together")
        paths = (args.train_index, args.test_index)
    elif args.dataset == "synthetic":
        corpus = synthesize_letter_like(
            args.seed, args.syn_count, args.syn_classes, args.syn_distortion)
        halves = dict(zip((Split.TRAIN, Split.TEST), split_corpus(corpus)))
        return [halves[s] for s in splits]
    else:
        paths = locate_iam_indexes(_data_root(args), args.dataset)
    index = dict(zip((Split.TRAIN, Split.TEST), paths))
    return [load_iam_corpus(index[s], s) for s in splits]


def _write_json(obj: dict, path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_contract(args) -> int:
    g = load_graph_file(args.graph)
    measure = CentralityMeasure(args.measure)
    contracted, report = t_centrality_node_contraction(g, args.t, measure)
    text = write_gxl(contracted)
    if args.out_graph == "-":
        print(text, end="")
        if args.out_report == "-":
            print()
    else:
        Path(args.out_graph).write_text(text, encoding="utf-8")
    _write_json(report.to_json_dict(), args.out_report)
    return EXIT_OK


def cmd_ged(args) -> int:
    cm, search = _search_from_args(args)
    if args.out is not None and not args.json:
        raise ValueError("--out applies only with --json")
    g1 = load_graph_file(args.graph1)
    g2 = load_graph_file(args.graph2)
    measure = CentralityMeasure(args.measure)
    result = t_centrality_ged(g1, g2, args.t, measure, cm, search)
    if args.json:
        _write_json({"search": search.describe(), **result.to_json_dict()}, args.out)
        return EXIT_OK
    rep1, rep2 = result.contraction_reports
    print(f"cost: {result.cost}")
    print(f"search: {search.describe()}  expanded: {result.expanded_nodes}  "
          f"elapsed: {result.elapsed:.4f}s")
    print(f"contracted: {rep1.removed_ids} | {rep2.removed_ids}")
    print(f"operations ({len(result.path.operations)}):")
    for op in result.path.operations:
        print(f"  {op.kind.value:<9} {op.source!r:>10} -> {op.target!r:<10} cost {op.cost}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cm, search = _search_from_args(args)
    [corpus] = _resolve_corpora(args, Split(args.split))
    if args.measures == "all":
        measures = list(CentralityMeasure)
    else:
        measures = [CentralityMeasure(m.strip()) for m in args.measures.split(",") if m.strip()]
    levels = [parse_level(s) for s in args.levels.split(",") if s.strip()]
    records = run_timing_benchmark(
        corpus, measures, levels, search,
        sample=args.sample, seed=args.seed, cm=cm)
    write_benchmark_csv(records, args.out_csv)
    summary = {
        "corpus": corpus.name,
        "search": search.describe(),
        "seed": args.seed,
        "sample": args.sample,
        **summarize_benchmark(records),
    }
    _write_json(summary, args.out_json)
    print(f"wrote {len(records)} records to {args.out_csv} and summary to {args.out_json}")
    print(f"{'measure':<13} {'level':<6} {'pairs':>5} {'mean_cost':>10} "
          f"{'contract_ms':>11} {'search_ms':>9} {'mean_expanded':>14}")
    for m in summary["means"]:
        print(f"{m['measure']:<13} {m['level']:<6} {m['pairs']:>5} "
              f"{m['mean_cost']:>10.4f} {m['mean_contraction_seconds'] * 1e3:>11.3f} "
              f"{m['mean_search_seconds'] * 1e3:>9.3f} {m['mean_expanded_nodes']:>14.2f}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cm, search = _search_from_args(args)
    train, test = _resolve_corpora(args, Split.TRAIN, Split.TEST)
    measure = CentralityMeasure(args.measure)
    level = parse_level(args.level)
    result = nn_classify(train, test, measure, level, search, cm, workers=args.workers)
    payload = {
        "measure": measure.value,
        "level": level.value,
        "search": search.describe(),
        "train": train.name,
        "test": test.name,
        **result.to_json_dict(),
    }
    _write_json(payload, args.out_json)
    print(f"accuracy: {result.accuracy:.4f} "
          f"({payload['correct']}/{payload['total']}) at {level} with {measure}; "
          f"searched {result.searches} of {result.pairs} pairs, {result.bounds} bounds, "
          f"{result.hausdorff_bounds} Hausdorff bounds")
    return EXIT_OK


def cmd_stats(args) -> int:
    [corpus] = _resolve_corpora(args, Split(args.split))
    stats = corpus_stats(corpus)
    payload = {"corpus": corpus.name, "split": corpus.split.value, **stats.to_json_dict()}
    _write_json(payload, args.out_json)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cged",
        description="Graph edit distance with centrality-guided node contraction.",
        epilog=(
            "examples:\n"
            "  cged ged a.gxl b.gxl --t 2 --measure pagerank\n"
            "  cged benchmark --dataset synthetic --sample 100 --search beam --beam-width 10\n"
            "  cged benchmark --dataset letter-high --data-root ~/iam --sample 100\n"
            "  cged classify --dataset aids --data-root ~/iam --level 'T1*' --workers 4\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("contract", help="contract one graph file, write result + report")
    p.add_argument("graph", help="GXL graph file")
    p.add_argument("--t", type=int, default=0, help="number of nodes to contract")
    p.add_argument("--measure", choices=[m.value for m in CentralityMeasure],
                   default="degree")
    p.add_argument("--out-graph", default="-", metavar="FILE",
                   help="contracted graph as GXL (default: stdout)")
    p.add_argument("--out-report", default="-", metavar="FILE",
                   help="JSON contraction report (default: stdout)")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("ged", help="edit distance between two graph files")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--t", type=int, default=0, help="contraction budget per graph")
    p.add_argument("--measure", choices=[m.value for m in CentralityMeasure],
                   default="degree")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="where to write --json output (default: stdout)")
    _add_search_args(p)
    p.set_defaults(func=cmd_ged)

    p = sub.add_parser("benchmark", help="timing/expansion grid -> CSV + JSON summary")
    _add_dataset_args(p)
    p.add_argument("--split", choices=("train", "test"), default="test",
                   help="which split to benchmark (default: test)")
    p.add_argument("--measures", default="all",
                   help="comma-separated measures, or 'all' (default)")
    p.add_argument("--levels", default="T0,T1*,T2*,T3*",
                   help="comma-separated contraction levels (default: all four)")
    p.add_argument("--sample", type=int, default=100, help="number of graph pairs")
    p.add_argument("--out-csv", default="benchmark.csv", metavar="FILE")
    p.add_argument("--out-json", default="benchmark.json", metavar="FILE")
    _add_search_args(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("classify", help="nearest-neighbor classification -> JSON")
    _add_dataset_args(p)
    p.add_argument("--measure", choices=[m.value for m in CentralityMeasure],
                   default="degree")
    p.add_argument("--level", default="T0", help="contraction level (default: T0)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that compute, this one included (default: 1)")
    p.add_argument("--out-json", default="classification.json", metavar="FILE")
    _add_search_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stats", help="corpus statistics (counts, means, histogram)")
    _add_dataset_args(p)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out-json", default="-", metavar="FILE")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GxlParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
