"""Per-node centrality scores and the ascending ranking used by contraction.

Four measures are provided: degree, betweenness (shortest-path counting,
endpoints excluded, each unordered pair counted once), eigenvector
(nonnegative principal eigenvector of the adjacency matrix, computed per
connected component) and PageRank (fixed point of
``x = alpha * A @ (x / k) + gamma`` with ``k`` the degree vector and
gamma = (1 - alpha) / n). The two iterative solvers have fixed settings,
the module constants below; one that does not reach its tolerance within
``MAX_ITER`` iterations raises :class:`ConvergenceError`.

All measures are pure functions of the graph; scores are keyed by node id
and ties are always broken by ascending id, so rankings are total and
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .graph import Graph


class CentralityMeasure(Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    EIGENVECTOR = "eigenvector"
    PAGERANK = "pagerank"

    def __str__(self) -> str:  # CSV/CLI friendliness
        return self.value


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations before reaching tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


EIGENVECTOR_TOL = 1e-8
PAGERANK_TOL = 1e-10
PAGERANK_ALPHA = 0.85
MAX_ITER = 1000


@dataclass
class CentralityScores:
    measure: CentralityMeasure
    scores: dict[int, float]
    iterations_used: int = 0
    residual: float = 0.0


def _adjacency(g: Graph, ids: list[int]) -> np.ndarray:
    """Dense 0/1 adjacency over ids; ids may be a single component's nodes."""
    index = {u: i for i, u in enumerate(ids)}
    a = np.zeros((len(ids), len(ids)), np.float64)
    for u, v, _ in g.edges():
        if u in index and v in index:
            i, j = index[u], index[v]
            a[i, j] = 1.0
            a[j, i] = 1.0
    return a


def degree_centrality(g: Graph) -> CentralityScores:
    scores = {u: float(g.degree(u)) for u in g.nodes()}
    return CentralityScores(CentralityMeasure.DEGREE, scores)


def betweenness_centrality(g: Graph) -> CentralityScores:
    ids = g.nodes()
    if not ids:
        return CentralityScores(CentralityMeasure.BETWEENNESS, {})
    index = {u: i for i, u in enumerate(ids)}
    adj = [[index[v] for v in g.neighbors(u)] for u in ids]
    bc = kernels.betweenness_counts(adj)
    return CentralityScores(CentralityMeasure.BETWEENNESS, dict(zip(ids, bc)))


def eigenvector_centrality(g: Graph) -> CentralityScores:
    """Principal-eigenvector scores, one power iteration per connected component.

    Each component's sub-vector is normalized to unit Euclidean length;
    a single-node component scores 1 by convention (its top eigenvalue is 0).
    Iterating A + I instead of A keeps the iteration convergent on bipartite
    components, where A's spectrum is symmetric.
    """
    scores: dict[int, float] = {}
    total_iters = 0
    worst_residual = 0.0
    for block in g.connected_components():
        ids = sorted(block)
        if len(ids) == 1:
            scores[ids[0]] = 1.0
            continue
        a = _adjacency(g, ids)
        x = np.full(len(ids), 1.0 / np.sqrt(len(ids)))
        residual = np.inf
        converged = False
        for it in range(1, MAX_ITER + 1):
            y = a @ x + x
            x = y / np.linalg.norm(y)
            ax = a @ x
            kappa = float(x @ ax)
            residual = float(np.max(np.abs(ax - kappa * x)))
            if residual <= EIGENVECTOR_TOL:
                total_iters += it
                converged = True
                break
        if not converged:
            raise ConvergenceError("eigenvector power iteration did not converge",
                                   residual, MAX_ITER)
        worst_residual = max(worst_residual, residual)
        x = np.abs(x)  # principal eigenvector is nonnegative; scrub sign noise
        for i, u in enumerate(ids):
            scores[u] = float(x[i])
    return CentralityScores(CentralityMeasure.EIGENVECTOR, scores,
                            iterations_used=total_iters, residual=worst_residual)


def pagerank_centrality(g: Graph) -> CentralityScores:
    """Fixed point of ``x = alpha * A @ (x / k) + gamma``, with alpha =
    PAGERANK_ALPHA and gamma = (1 - alpha) / n.

    Degrees play the role of outgoing degrees. Isolated nodes contribute
    nothing to their (absent) neighbors and receive exactly gamma.
    """
    n = g.order
    if n == 0:
        return CentralityScores(CentralityMeasure.PAGERANK, {},
                                iterations_used=0, residual=0.0)
    ids = g.nodes()
    gamma = (1.0 - PAGERANK_ALPHA) / n
    a = _adjacency(g, ids)
    k = a.sum(axis=1)
    inv_k = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    x = np.full(n, gamma)
    for it in range(1, MAX_ITER + 1):
        nxt = PAGERANK_ALPHA * (a @ (x * inv_k)) + gamma
        # residual of x itself: ||f(x) - x||_inf; return the iterate measured
        residual = float(np.max(np.abs(nxt - x)))
        if residual <= PAGERANK_TOL:
            return CentralityScores(
                CentralityMeasure.PAGERANK,
                {u: float(x[i]) for i, u in enumerate(ids)},
                iterations_used=it - 1,
                residual=residual,
            )
        x = nxt
    raise ConvergenceError("PageRank iteration did not converge", residual, MAX_ITER)


def compute_centrality(g: Graph, measure: CentralityMeasure) -> CentralityScores:
    if measure is CentralityMeasure.DEGREE:
        return degree_centrality(g)
    if measure is CentralityMeasure.BETWEENNESS:
        return betweenness_centrality(g)
    if measure is CentralityMeasure.EIGENVECTOR:
        return eigenvector_centrality(g)
    if measure is CentralityMeasure.PAGERANK:
        return pagerank_centrality(g)
    raise ValueError(f"unknown centrality measure: {measure!r}")


def rank_ascending(s: CentralityScores) -> list[int]:
    """Node ids ordered by (score ascending, id ascending); a total order."""
    return sorted(s.scores, key=lambda u: (s.scores[u], u))
