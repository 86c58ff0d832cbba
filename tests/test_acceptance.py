"""End-to-end acceptance checks.

Each check prints one visible [criterion N] PASS/FAIL/SKIP line, including
the tolerance it enforced, then asserts. Expected values come from
independent oracles (exhaustive mapping enumeration, literal shortest-path
counting, dense eigensolver, direct linear solve) or from hand-traced
examples; never from the code under test.
"""

import json
import os
import random
import time

import pytest

from cged import (
    CentralityMeasure,
    CostModel,
    astar_ged,
    beam_ged,
    t_centrality_node_contraction,
)
from cged.contraction import k_degree_node_contraction
from cged.dataset import (
    Corpus,
    DatasetError,
    Split,
    corpus_stats,
    load_iam_corpus,
    locate_iam_indexes,
    split_corpus,
    synthesize_letter_like,
)
from cged.evaluation import TLevel, nn_classify, run_timing_benchmark, t_star_levels
from cged.ged import SearchSpec, brute_force_ged
from cged.centrality import (
    betweenness_centrality,
    eigenvector_centrality,
    pagerank_centrality,
)
from helpers import (
    adjacency_matrix,
    betweenness_by_path_enumeration,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)

MODELS = [
    CostModel(),                      # all-ones defaults
    CostModel(0.9, 1.7, 0.4, 0.2),    # node ops dominate
    CostModel(2.0, 0.5, 1.5, 3.0),    # edge ops dominate
]
ALL_LEVELS = [TLevel.T0, TLevel.T1STAR, TLevel.T2STAR, TLevel.T3STAR]


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def skip(capsys, n: int, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {n}] SKIP - {detail}")
    pytest.skip(detail)


@pytest.fixture(scope="module")
def oracle_pairs():
    """210 seeded random pairs, <= 4 nodes, alternating label kinds."""
    rng = random.Random(424242)
    pairs = []
    for trial in range(210):
        symbolic = trial % 2 == 0
        g1 = random_graph(rng, n_max=4, symbolic=symbolic, numeric_edge_p=0.3)
        g2 = random_graph(rng, n_max=4, symbolic=symbolic, numeric_edge_p=0.3)
        pairs.append((g1, g2, MODELS[trial % len(MODELS)]))
    return pairs


@pytest.fixture(scope="module")
def astar_costs(oracle_pairs):
    return [astar_ged(g1, g2, cm).cost for g1, g2, cm in oracle_pairs]


def trend_corpus() -> Corpus:
    """Letter-HIGH training graphs when IAM data is available, else synthetic."""
    root = os.environ.get("CGED_DATA_ROOT")
    if root:
        try:
            train_path, _ = locate_iam_indexes(root, "letter-high")
            return load_iam_corpus(train_path, Split.TRAIN)
        except DatasetError:
            pass
    return synthesize_letter_like(seed=606, count=40, classes=4, distortion=0.3)


@pytest.fixture(scope="module")
def trend_records():
    corpus = trend_corpus()
    t0 = time.perf_counter()
    records = run_timing_benchmark(
        corpus, list(CentralityMeasure), ALL_LEVELS,
        SearchSpec.astar(), sample=100, seed=1337)
    return corpus.name, records, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(capsys, oracle_pairs, astar_costs):
    t0 = time.perf_counter()
    worst = 0.0
    for (g1, g2, cm), got in zip(oracle_pairs, astar_costs):
        want = brute_force_ged(g1, g2, cm)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(capsys, 1, ok,
           f"exact search equals exhaustive oracle on {len(oracle_pairs)} random pairs "
           f"(3 cost models, both label kinds; max |diff| {worst:.2e} <= 1e-9; "
           f"{elapsed:.1f}s <= 60s)")


def test_criterion_2_beam_bound(capsys, oracle_pairs, astar_costs):
    violations = 0
    worst_eq = 0.0
    for (g1, g2, cm), exact in zip(oracle_pairs, astar_costs):
        for w in (1, 3, 10):
            if beam_ged(g1, g2, cm, w).cost < exact - 1e-9:
                violations += 1
        worst_eq = max(worst_eq, abs(beam_ged(g1, g2, cm, 10**6).cost - exact))
    ok = violations == 0 and worst_eq <= 1e-9
    report(capsys, 2, ok,
           f"beam cost >= exact for w in {{1,3,10}} on {len(oracle_pairs)} pairs "
           f"({violations} violations at tol 1e-9); unpruned beam equals exact "
           f"(max |diff| {worst_eq:.2e} <= 1e-9)")


def test_criterion_3_metric_properties(capsys, oracle_pairs):
    corpus = synthesize_letter_like(seed=303, count=40, classes=4, distortion=0.3)
    self_bad = sum(astar_ged(g, g).cost != 0.0 for g in corpus)

    graphs = [g for g1, g2, _ in oracle_pairs[:60] for g in (g1, g2)]
    sym_worst = 0.0
    for i in range(0, 100, 2):
        a, b = graphs[i], graphs[i + 1]
        sym_worst = max(sym_worst, abs(astar_ged(a, b).cost - astar_ged(b, a).cost))
    tri_bad = 0
    for i in range(50):
        a, b, c = graphs[i], graphs[i + 25], graphs[i + 50]
        dab = astar_ged(a, b).cost
        dbc = astar_ged(b, c).cost
        dac = astar_ged(a, c).cost
        if dac > dab + dbc + 1e-9:
            tri_bad += 1
    ok = self_bad == 0 and sym_worst <= 1e-9 and tri_bad == 0
    report(capsys, 3, ok,
           f"self-distance 0 on all {len(corpus)} corpus graphs; symmetry on 50 pairs "
           f"(max |diff| {sym_worst:.2e} <= 1e-9); triangle inequality on 50 triples "
           f"({tri_bad} violations at tol 1e-9)")


def test_criterion_4_centrality_oracles(capsys):
    rng = random.Random(404)
    bet_worst = 0.0
    for _ in range(120):
        g = random_graph(rng, n_max=8, edge_p=rng.uniform(0.2, 0.7))
        got = betweenness_centrality(g).scores
        want = betweenness_by_path_enumeration(g)
        for u in want:
            bet_worst = max(bet_worst, abs(got[u] - want[u]))

    eig_worst = 0.0
    pr_worst = 0.0
    sum_worst = 0.0
    for _ in range(60):
        g = random_graph(rng, n_max=9, n_min=1, edge_p=rng.uniform(0.2, 0.6))
        scores = eigenvector_centrality(g).scores
        for block in g.connected_components():
            ids = sorted(block)
            x = [scores[u] for u in ids]
            a = adjacency_matrix(g, ids)
            ax = a @ x
            kappa = float(ax @ x)
            eig_worst = max(eig_worst,
                            max(abs(ax[i] - kappa * x[i]) for i in range(len(ids))))
        pr = pagerank_centrality(g).scores
        ids = g.nodes()
        gamma = 0.15 / len(ids)
        for u in ids:
            acc = gamma
            for v in g.neighbors(u):
                acc += 0.85 * pr[v] / g.degree(v)
            pr_worst = max(pr_worst, abs(acc - pr[u]))
        if g.component_count() == 1 and g.order >= 2:
            sum_worst = max(sum_worst, abs(sum(pr.values()) - 1.0))
    ok = bet_worst <= 1e-9 and eig_worst <= 1e-12 and pr_worst <= 1e-12 and sum_worst <= 1e-12
    report(capsys, 4, ok,
           f"betweenness = path enumeration on 120 graphs (max {bet_worst:.2e} <= 1e-9); "
           f"eigenvector residual {eig_worst:.2e} <= 1e-12; PageRank residual "
           f"{pr_worst:.2e} <= 1e-12, connected-graph sum off by {sum_worst:.2e} <= 1e-12")


def test_criterion_5_contraction_invariants(capsys):
    rng = random.Random(505)
    measures = list(CentralityMeasure)
    checked = 0
    for trial in range(500):
        g = random_graph(rng, n_max=9, edge_p=rng.uniform(0.15, 0.6))
        t = rng.randint(0, g.order + 1)
        measure = measures[trial % len(measures)]
        h, rep = t_centrality_node_contraction(g, t, measure)
        h2, rep2 = t_centrality_node_contraction(g, t, measure)
        assert h.component_count() == g.component_count(), (g.edges(), t, measure)
        assert len(rep.removed) <= t
        assert h.order == g.order - len(rep.removed)
        assert (h2, rep2) == (h, rep)
        checked += 1

    # hand-traced unit cases
    _, rep = t_centrality_node_contraction(path_graph(3), 3, CentralityMeasure.DEGREE)
    assert rep.removed_ids == [0, 2]
    h, rep = t_centrality_node_contraction(star_graph(4), 2, CentralityMeasure.DEGREE)
    assert rep.removed_ids == [1, 2] and h.has_node(0)
    _, rep = k_degree_node_contraction(cycle_graph(4), 2)
    assert rep.removed_ids == [0, 1, 2]
    assert t_star_levels(star_graph(4))[TLevel.T1STAR] == 4
    report(capsys, 5, True,
           f"component count preserved, |removed| <= t, deterministic on {checked} "
           f"random graphs across all four measures; P3/C4/K1,4 hand traces exact")


def test_criterion_6_search_space_trend(capsys, trend_records):
    corpus_name, records, elapsed = trend_records
    means = {}
    counts = {}
    for r in records:
        key = (r.measure, r.t_level)
        means[key] = means.get(key, 0.0) + r.expanded_nodes
        counts[key] = counts.get(key, 0) + 1
    bad = []
    lines = []
    for m in CentralityMeasure:
        seq = [means[(m, lv)] / counts[(m, lv)] for lv in ALL_LEVELS]
        lines.append(f"{m.value}: " + " -> ".join(f"{v:.1f}" for v in seq))
        if any(seq[i + 1] > seq[i] + 1e-9 for i in range(len(seq) - 1)):
            bad.append(m.value)
    ok = not bad and elapsed <= 300.0
    report(capsys, 6, ok,
           f"mean expanded nodes non-increasing T0->T1*->T2*->T3* on {corpus_name} "
           f"(100 pairs, {elapsed:.0f}s <= 300s): " + "; ".join(lines)
           + (f"; FAILED for {bad}" if bad else ""))


def test_criterion_7_t0_measure_independence(capsys, trend_records):
    _, records, _ = trend_records
    by_pair = {}
    for r in records:
        if r.t_level is TLevel.T0:
            by_pair.setdefault(r.pair_id, set()).add(r.cost)
    spread = max(len(v) for v in by_pair.values())
    ok = spread == 1
    report(capsys, 7, ok,
           f"all four measures give byte-identical costs at T0 on "
           f"{len(by_pair)} benchmark pairs (exact equality)")


def test_criterion_8_iam_dataset_stats(capsys):
    root = os.environ.get("CGED_DATA_ROOT")
    if not root:
        skip(capsys, 8, "IAM data not supplied (CGED_DATA_ROOT unset); "
                        "Letter/AIDS statistics not checkable at desk scale")
    try:
        letter_train, letter_test = locate_iam_indexes(root, "letter-high")
        aids_train, aids_test = locate_iam_indexes(root, "aids")
    except DatasetError as exc:
        skip(capsys, 8, f"IAM data not found under {root}: {exc}")

    lt = load_iam_corpus(letter_train, Split.TRAIN)
    le = load_iam_corpus(letter_test, Split.TEST)
    letter_all = Corpus("letter", list(lt) + list(le))
    ls = corpus_stats(letter_all)
    letter_ok = (abs(ls.avg_nodes - 4.7) <= 0.1 and abs(ls.avg_edges - 4.5) <= 0.1
                 and len(lt) == 750 and len(le) == 750
                 and all(v == 50 for v in corpus_stats(lt).class_histogram.values())
                 and all(v == 50 for v in corpus_stats(le).class_histogram.values()))

    at = load_iam_corpus(aids_train, Split.TRAIN)
    ae = load_iam_corpus(aids_test, Split.TEST)
    aids_all = Corpus("aids", list(at) + list(ae))
    astats = corpus_stats(aids_all)
    aids_ok = (abs(astats.avg_nodes - 15.7) <= 0.1 and abs(astats.avg_edges - 16.2) <= 0.1
               and sorted(corpus_stats(at).class_histogram.values()) == [50, 200]
               and sorted(corpus_stats(ae).class_histogram.values()) == [300, 1200])
    report(capsys, 8, letter_ok and aids_ok,
           f"Letter-HIGH avg nodes {ls.avg_nodes:.2f} (4.7 +- 0.1), avg edges "
           f"{ls.avg_edges:.2f} (4.5 +- 0.1), splits {len(lt)}/{len(le)}; AIDS avg nodes "
           f"{astats.avg_nodes:.2f} (15.7 +- 0.1), avg edges {astats.avg_edges:.2f} "
           f"(16.2 +- 0.1), class splits {sorted(corpus_stats(at).class_histogram.values())} "
           f"train / {sorted(corpus_stats(ae).class_histogram.values())} test")


def test_criterion_9_classification_sanity(capsys):
    clean = synthesize_letter_like(seed=909, count=24, classes=4, distortion=0.0)
    train0, test0 = split_corpus(clean)
    exact = nn_classify(train0, test0, CentralityMeasure.DEGREE, TLevel.T0,
                        SearchSpec.astar())
    clean_ok = exact.accuracy == 1.0

    noisy = synthesize_letter_like(seed=910, count=48, classes=4, distortion=0.3)
    train, test = split_corpus(noisy)
    chance = 1.0 / 4.0
    accs = {}
    for level in ALL_LEVELS:
        res = nn_classify(train, test, CentralityMeasure.DEGREE, level,
                          SearchSpec.beam(10), workers=2)
        accs[level.value] = res.accuracy
    noisy_ok = all(a > chance for a in accs.values())

    serial = nn_classify(train, test, CentralityMeasure.DEGREE, TLevel.T1STAR,
                         SearchSpec.beam(10), workers=1)
    pooled = nn_classify(train, test, CentralityMeasure.DEGREE, TLevel.T1STAR,
                         SearchSpec.beam(10), workers=3)
    stable = (serial.predictions == pooled.predictions
              and json.dumps(serial.to_json_dict()) == json.dumps(pooled.to_json_dict()))

    ok = clean_ok and noisy_ok and stable
    acc_text = ", ".join(f"{k}={v:.3f}" for k, v in accs.items())
    report(capsys, 9, ok,
           f"distortion-0 accuracy {exact.accuracy:.2f} == 1.0 at T0; distortion-0.3 "
           f"beam(w=10) accuracy above chance {chance:.2f} at every level ({acc_text}); "
           f"predictions byte-identical across 1 and 3 workers: {stable}")
