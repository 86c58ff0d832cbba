"""Per-node centrality scores and the ascending ranking used by contraction.

Four measures are provided: degree, betweenness (shortest-path counting,
endpoints excluded, each unordered pair counted once), eigenvector
(nonnegative principal eigenvector of the adjacency matrix, unit length per
connected component, from one symmetric eigensolve per component) and
PageRank (solution of ``x = alpha * A @ (x / k) + gamma`` with ``k`` the
degree vector, alpha = PAGERANK_ALPHA and gamma = (1 - alpha) / n, from one
linear solve). Nothing iterates, so nothing can fail to converge.

All measures are pure functions of the graph and scores are keyed by node
id. :func:`rank_ascending` compares scores rounded to RANK_DIGITS
significant digits and breaks ties by ascending id, so rankings are total,
reproducible, and not decided by floating-point noise between nodes that
score the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .graph import Graph, _check_type, reach


class CentralityMeasure(Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    EIGENVECTOR = "eigenvector"
    PAGERANK = "pagerank"

    def __str__(self) -> str:  # CSV/CLI friendliness
        return self.value


PAGERANK_ALPHA = 0.85
RANK_DIGITS = 10


@dataclass
class CentralityScores:
    """Unrounded scores of one measure, keyed by node id.

    ``iterations_used`` is always 0, since no measure iterates; it is kept
    for callers that sum solver iterations.
    """

    measure: CentralityMeasure
    scores: dict[int, float]
    iterations_used: int = 0


def degree_centrality(g: Graph) -> CentralityScores:
    form = g.arrays()
    return CentralityScores(CentralityMeasure.DEGREE, dict(zip(form.ids, map(float, form.deg))))


def betweenness_centrality(g: Graph) -> CentralityScores:
    form = g.arrays()
    bc = kernels.betweenness_counts(form.adj)
    return CentralityScores(CentralityMeasure.BETWEENNESS, dict(zip(form.ids, bc)))


def eigenvector_centrality(g: Graph) -> CentralityScores:
    """Principal-eigenvector scores, one ``eigh`` per connected component.

    Each component's sub-vector is normalized to unit Euclidean length;
    a single-node component scores 1 by convention (its top eigenvalue is 0).
    ``eigh`` returns eigenvalues in ascending order, so the last column is
    the principal eigenvector, also on bipartite components whose spectrum
    is symmetric.
    """
    form = g.arrays()
    a = np.array(form.kind, bool).astype(np.float64)  # 1.0 for an edge of either kind
    scores: dict[int, float] = {}
    left = (1 << len(form.ids)) - 1
    while left:
        block = reach(form.masks, left, left & -left)  # the component of the lowest position left
        left &= ~block
        pos = [p for p in range(block.bit_length()) if block >> p & 1]
        if len(pos) == 1:
            scores[form.ids[pos[0]]] = 1.0
            continue
        _, vecs = np.linalg.eigh(a[np.ix_(pos, pos)])
        x = np.abs(vecs[:, -1])  # defined up to sign; the Perron vector is positive
        x /= np.linalg.norm(x)
        for i, p in enumerate(pos):
            scores[form.ids[p]] = float(x[i])
    return CentralityScores(CentralityMeasure.EIGENVECTOR, scores)


def pagerank_centrality(g: Graph) -> CentralityScores:
    """Solution of ``x = alpha * A @ (x / k) + gamma``, with alpha =
    PAGERANK_ALPHA and gamma = (1 - alpha) / n, by one linear solve.

    Degrees play the role of outgoing degrees. Isolated nodes contribute
    nothing to their (absent) neighbors and receive exactly gamma: their
    rows and columns of the system are those of the identity.
    """
    n = g.order
    if n == 0:
        return CentralityScores(CentralityMeasure.PAGERANK, {})
    gamma = (1.0 - PAGERANK_ALPHA) / n
    form = g.arrays()
    a = np.array(form.kind, bool).astype(np.float64)  # 1.0 for an edge of either kind
    k = a.sum(axis=1)
    inv_k = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    x = np.linalg.solve(np.eye(n) - PAGERANK_ALPHA * (a * inv_k),
                        np.full(n, gamma))
    return CentralityScores(CentralityMeasure.PAGERANK, dict(zip(form.ids, x.tolist())))


def compute_centrality(g: Graph, measure: CentralityMeasure) -> CentralityScores:
    """The scores of ``measure``; anything but a :class:`CentralityMeasure`
    raises ``ValueError`` before any work."""
    _check_type(measure, CentralityMeasure, "measure")
    if measure is CentralityMeasure.DEGREE:
        return degree_centrality(g)
    if measure is CentralityMeasure.BETWEENNESS:
        return betweenness_centrality(g)
    if measure is CentralityMeasure.EIGENVECTOR:
        return eigenvector_centrality(g)
    return pagerank_centrality(g)


def rank_ascending(s: CentralityScores) -> list[int]:
    """Node ids ordered by (score rounded to RANK_DIGITS significant digits,
    id), both ascending; a total order.

    Rounding makes scores that differ only by solver noise tie, so such
    nodes are ranked by id instead of by the order of the solver's sums.
    """
    return sorted(s.scores, key=lambda u: (float(f"{s.scores[u]:.{RANK_DIGITS - 1}e}"), u))
