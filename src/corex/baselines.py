"""Reference core-scoring methods used as comparison curves.

All scorers return a float64 array with one value per node; larger means
more core-like.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError
from .graph import SparseGraph, degrees

__all__ = [
    "degree_scores",
    "pagerank_scores",
    "eigenvector_scores",
    "local_cc_scores",
    "coreness_scores",
]

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-12  # on the L1 change of one iteration
PAGERANK_MAX_ITER = 1000
EIGENVECTOR_TOL = 1e-10  # ARPACK's relative accuracy of each Perron root
EIGENVECTOR_TIE = 1e-9  # Perron roots this close, relatively, count as shared
_PRODUCT_BLOCK = 2**22  # stored entries of one row block's product in local_cc_scores


def degree_scores(g: SparseGraph) -> np.ndarray:
    return degrees(g).astype(np.float64)


def pagerank_scores(g: SparseGraph) -> np.ndarray:
    """Power iteration for PageRank on the undirected graph.

    Each undirected edge acts as two directed edges; isolated (dangling)
    nodes redistribute their mass uniformly.  Iterates until the L1 change
    drops below PAGERANK_TOL.
    """
    n = g.n
    if n == 0:
        raise DomainError("graph is empty")
    deg = degrees(g).astype(np.float64)
    dangling = deg == 0
    adj = g.to_csr()
    pr = np.full(n, 1.0 / n)
    base = (1.0 - PAGERANK_DAMPING) / n
    for _ in range(PAGERANK_MAX_ITER):
        outflow = np.where(dangling, 0.0, pr / np.where(dangling, 1.0, deg))
        nxt = base + PAGERANK_DAMPING * (adj @ outflow)
        if dangling.any():
            nxt += PAGERANK_DAMPING * pr[dangling].sum() / n
        delta = float(np.abs(nxt - pr).sum())
        pr = nxt
        if delta <= PAGERANK_TOL:
            return pr
    raise ConvergenceError(f"pagerank did not converge in {PAGERANK_MAX_ITER} iterations",
                           residual=delta)


def eigenvector_scores(g: SparseGraph) -> np.ndarray:
    """Entrywise-nonnegative leading eigenvector of the adjacency matrix,
    unit norm: the all-ones vector projected onto the leading eigenspace,
    which power iteration from it converges to.  Each connected component
    takes its own ARPACK Lanczos solve (`eigsh`; "LA" is the Perron root, so
    bipartite graphs need no shift).  One solve over the whole graph would
    mix the Perron vectors of components that share the largest root: ARPACK
    goes on from random vectors once the all-ones Krylov space is exhausted."""
    if g.m == 0:
        raise DomainError("eigenvector centrality needs at least one edge")
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    adj = g.to_csr()
    labels = connected_components(adj, directed=False)[1]
    sizes = np.bincount(labels)
    order, ends = np.argsort(labels, kind="stable"), np.cumsum(sizes)
    roots, x = np.zeros(sizes.size), np.zeros(g.n)
    for c in np.flatnonzero(sizes > 1):  # isolated nodes score 0
        nodes = order[ends[c] - sizes[c]:ends[c]]
        sub = adj[nodes][:, nodes] if nodes.size < g.n else adj  # connected: no copy
        try:
            val, vec = eigsh(sub, k=1, which="LA", v0=np.ones(nodes.size), tol=EIGENVECTOR_TOL)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"eigenvector centrality did not converge: {exc}") from None
        vec = np.abs(vec[:, 0])  # the unit Perron vector: fix the sign convention
        roots[c], x[nodes] = val[0], vec * vec.sum()  # the all-ones vector projected onto it
    x[roots[labels] < roots.max() * (1.0 - EIGENVECTOR_TIE)] = 0.0
    return x / np.linalg.norm(x)


def local_cc_scores(g: SparseGraph) -> np.ndarray:
    """Local clustering coefficient 2 T_i / (d_i (d_i - 1)); nodes of
    degree below 2 score 0.

    T_i counts each triangle once, over the edges oriented from the lower to
    the higher (degree, id) rank (Chiba & Nishizeki, SIAM J. Comput. 14, 1985;
    Latapy, Theor. Comput. Sci. 407, 2008).  In the half adjacency L, which
    holds each edge in the row of its lower end, (L @ L) masked to L credits a
    triangle to its lowest and highest corners, and (L.T @ L) masked to L to
    its middle one.  Neither A @ A nor L @ L.T, whose size grows with the
    squared in-degree, is formed."""
    n = g.n
    deg = degrees(g)
    values = np.zeros(n)
    if g.m:
        from scipy import sparse
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
        rows = np.repeat(np.arange(n), deg)
        keep = rank[g.indices] > rank[rows]
        # the rows stay sorted, so the kept entries are already the CSR of L
        indptr = np.zeros(n + 1, dtype=g.indptr.dtype)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
        # integer counts in the index dtype, which holds any degree
        low = sparse.csr_matrix((np.ones(g.m, dtype=g.indices.dtype), g.indices[keep], indptr),
                                shape=(n, n))
        del rank, rows, keep
        lowest, highest = _masked_product_sums(low, low)
        middle, _ = _masked_product_sums(low.T.tocsr(), low)
        tri = lowest + middle + highest
        deg = deg.astype(np.float64)
        eligible = deg >= 2
        denom = deg * (deg - 1.0)
        values[eligible] = 2.0 * tri[eligible] / denom[eligible]
    return values


def _masked_product_sums(left, low) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of (left @ low) masked to the pattern of `low`, a
    block of rows at a time: each block's product holds about _PRODUCT_BLOCK
    entries at most, and goes before the next is formed."""
    n = left.shape[0]
    # the products summed into each row of left @ low bound its stored entries
    work = np.cumsum(left @ np.diff(low.indptr).astype(np.int64))
    cuts = np.searchsorted(work, np.arange(_PRODUCT_BLOCK, work[-1], _PRODUCT_BLOCK))
    bounds = np.unique(np.concatenate([[0], cuts, [n]])).tolist()
    row_sums, col_sums = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for a, b in zip(bounds, bounds[1:]):
        block = (left[a:b] @ low).multiply(low[a:b])
        row_sums[a:b] = np.asarray(block.sum(axis=1)).ravel()
        col_sums += np.asarray(block.sum(axis=0)).ravel()
    return row_sums, col_sums


def coreness_scores(g: SparseGraph) -> np.ndarray:
    """Core number of every node by bucket peeling (Batagelj & Zaversnik,
    "An O(m) algorithm for cores decomposition of networks", 2003).

    values[i] is the largest k such that node i survives repeated removal
    of all nodes with degree < k.
    """
    n = g.n
    deg = degrees(g)
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
    return np.array(cur, dtype=np.float64)
