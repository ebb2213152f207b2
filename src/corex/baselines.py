"""Reference core-scoring methods used as comparison curves.

All scorers return one real value per node; larger means more core-like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .graph import SparseGraph, degrees

__all__ = [
    "BaselineScores",
    "degree_scores",
    "pagerank_scores",
    "eigenvector_scores",
    "local_cc_scores",
    "coreness_scores",
]


@dataclass(frozen=True)
class BaselineScores:
    values: np.ndarray
    method: str  # degree | pagerank | eigenvector | local_cc | coreness


def degree_scores(g: SparseGraph) -> BaselineScores:
    return BaselineScores(values=degrees(g).astype(np.float64), method="degree")


def pagerank_scores(g: SparseGraph, damping: float = 0.85,
                    tol: float = 1e-12, max_iter: int = 1000) -> BaselineScores:
    """Power iteration for PageRank on the undirected graph.

    Each undirected edge acts as two directed edges; isolated (dangling)
    nodes redistribute their mass uniformly.  Iterates until the L1 change
    drops below tol.
    """
    if not 0.0 < damping < 1.0:
        raise DomainError("damping must lie in (0, 1)")
    n = g.n
    if n == 0:
        raise DomainError("graph is empty")
    deg = degrees(g).astype(np.float64)
    dangling = deg == 0
    adj = g.to_csr()
    pr = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        outflow = np.where(dangling, 0.0, pr / np.where(dangling, 1.0, deg))
        nxt = base + damping * (adj @ outflow)
        if dangling.any():
            nxt += damping * pr[dangling].sum() / n
        delta = float(np.abs(nxt - pr).sum())
        pr = nxt
        if delta <= tol:
            return BaselineScores(values=pr, method="pagerank")
    raise ConvergenceError(f"pagerank did not converge in {max_iter} iterations",
                           residual=delta)


def eigenvector_scores(g: SparseGraph, tol: float = 1e-10,
                       max_iter: int = 20000) -> BaselineScores:
    """Entrywise-nonnegative leading eigenvector of the adjacency matrix,
    unit Euclidean norm, by power iteration from the all-ones vector.

    Iterates on A + I so that bipartite eigenvalue pairs of equal
    magnitude cannot stall the iteration; the leading eigenvector is the
    same.
    """
    if g.m == 0:
        raise DomainError("eigenvector centrality needs at least one edge")
    n = g.n
    adj = g.to_csr()
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        y = adj @ x + x
        norm = float(np.linalg.norm(y))
        y /= norm
        delta = float(np.linalg.norm(y - x))
        x = y
        if delta <= tol:
            x = np.abs(x)  # Perron vector: fix the sign convention
            return BaselineScores(values=x / np.linalg.norm(x), method="eigenvector")
    raise ConvergenceError(
        f"eigenvector centrality did not converge in {max_iter} iterations",
        residual=delta,
    )


def local_cc_scores(g: SparseGraph) -> BaselineScores:
    """Local clustering coefficient 2 T_i / (d_i (d_i - 1)); nodes of
    degree below 2 score 0."""
    n = g.n
    deg = degrees(g).astype(np.float64)
    values = np.zeros(n)
    if g.m:
        adj = g.to_csr()
        # triangles through i = row sums of (A @ A) masked to existing edges, / 2
        paths = (adj @ adj).multiply(adj)
        tri = np.asarray(paths.sum(axis=1)).ravel() / 2.0
        eligible = deg >= 2
        denom = deg * (deg - 1.0)
        values[eligible] = 2.0 * tri[eligible] / denom[eligible]
    return BaselineScores(values=values, method="local_cc")


def coreness_scores(g: SparseGraph) -> BaselineScores:
    """Core number of every node by bucket peeling (Batagelj & Zaversnik,
    "An O(m) algorithm for cores decomposition of networks", 2003).

    values[i] is the largest k such that node i survives repeated removal
    of all nodes with degree < k.
    """
    n = g.n
    deg = degrees(g)
    if n == 0:
        return BaselineScores(values=np.zeros(0), method="coreness")
    # nodes in buckets of equal degree, ascending; bin_ptr[d] starts bucket d
    vert = np.argsort(deg, kind="stable")
    node_pos = np.empty(n, dtype=np.int64)
    node_pos[vert] = np.arange(n)
    bin_ptr = np.concatenate([[0], np.cumsum(np.bincount(deg))]).tolist()
    vert, node_pos, cur = vert.tolist(), node_pos.tolist(), deg.tolist()
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    for idx in range(n):
        v = vert[idx]
        for u in indices[indptr[v]:indptr[v + 1]]:
            if cur[u] > cur[v]:
                # swap u toward the front of its bucket, then shrink it
                du = cur[u]
                pu = node_pos[u]
                pw = bin_ptr[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    node_pos[u], node_pos[w] = pw, pu
                bin_ptr[du] += 1
                cur[u] -= 1
    return BaselineScores(values=np.array(cur, dtype=np.float64), method="coreness")
