"""Shared helpers: independent brute-force oracles and small generators.

The oracles here deliberately avoid the library's fast paths (Gram trick,
degree-ordered triangles, bucket peeling, trapezoid AUC) so the tests
compare two genuinely different routes to the same quantity.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from corex.coreid import KMEANS_FLOOR
from corex.errors import DegenerateError, DomainError, InfeasibleError
from corex.graph import SparseGraph, sample_adjacency
from corex.synth import graphon_by_number

# one profile for every property test: examples of the dense oracles can
# take longer than hypothesis's 200 ms default deadline on a busy machine
settings.register_profile("corex", deadline=None)
settings.load_profile("corex")


def centering_matrix(n: int) -> np.ndarray:
    return np.eye(n) - np.ones((n, n)) / n


def dense_er_scores(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Brute force: materialize the low-rank estimate and center its rows."""
    n = u.shape[0]
    p_hat = (u * lam[np.newaxis, :]) @ u.T
    return np.linalg.norm(p_hat @ centering_matrix(n), axis=1)


def dense_config_scores(u: np.ndarray, lam: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Brute force with explicit inverse-degree column scaling (zero-degree
    columns dropped, matching the library's exclusion rule)."""
    n = u.shape[0]
    p_hat = (u * lam[np.newaxis, :]) @ u.T
    inv = np.zeros_like(deg, dtype=np.float64)
    inv[deg > 0] = 1.0 / deg[deg > 0]
    scores = np.linalg.norm((p_hat * inv[np.newaxis, :]) @ centering_matrix(n), axis=1)
    scores[deg == 0] = 0.0
    return scores


def random_orthonormal(n: int, r: int, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def random_graph(n: int, p: float, seed: int) -> SparseGraph:
    entries = np.full((n, n), p)
    np.fill_diagonal(entries, 0.0)
    return sample_adjacency(entries, seed)


@pytest.fixture
def constant_core(monkeypatch):
    """use(value): from then on synth.graphon_core, and so generate_instance,
    gives every core as `value` off a zero diagonal, whatever the graphon.
    use returns graphon 1, to pass where a graphon is asked for."""
    def use(value):
        def graphon_core(kind, n_core, seed):
            core = np.full((n_core, n_core), float(value))
            np.fill_diagonal(core, 0.0)
            return core
        monkeypatch.setattr("corex.synth.graphon_core", graphon_core)
        return graphon_by_number(1)
    return use


def dense_er(core: np.ndarray, n_periphery: int, level: float) -> np.ndarray:
    """The ER-type assembly [[C, a J], [a J, a (J - I)]], filled entry by entry."""
    nc = len(core)
    p = np.full((nc + n_periphery, nc + n_periphery), level)
    p[:nc, :nc] = core
    np.fill_diagonal(p, 0.0)
    return p


def dense_config(core: np.ndarray, theta_peri: np.ndarray, cfg):
    """The configuration-type assembly as the whole n x n matrix, built the
    way synth did before it kept the parts: (entries, c_core, c_periphery,
    clip count).  Raises DomainError for a core of zero weight and
    InfeasibleError where the ratio is unreachable or over 20% of the pairs
    clip."""
    nc, npr, n = cfg.n_core, cfg.n_periphery, cfg.n
    theta_core = core.sum(axis=1)
    s0 = float(theta_core.sum())
    if s0 <= 0.0:
        raise DomainError("core block has zero total weight")
    u_sum = float(theta_peri.sum())
    u_cross = u_sum * u_sum - float(np.dot(theta_peri, theta_peri))
    beta = 0.0
    if npr:
        ratio = cfg.degree_ratio * nc / npr
        qb = (ratio - 1.0) * u_sum
        denom = qb + np.sqrt(qb * qb + 4.0 * (ratio * u_cross / s0) * s0)
        if not denom > 0.0:
            raise InfeasibleError("degree ratio unreachable")
        beta = 2.0 * s0 / denom
    a = cfg.target_density * (n * n - n) / (s0 + 2.0 * beta * u_sum
                                            + beta * beta * u_cross / s0)
    theta = np.concatenate([a * theta_core, (a * beta) * theta_peri])
    p = np.outer(theta, theta) / (a * s0)
    p[:nc, :nc] = a * core
    np.fill_diagonal(p, 0.0)
    clip_count = int(np.count_nonzero(p > 1.0)) // 2
    if clip_count > 0.2 * ((n * n - n) // 2):
        raise InfeasibleError("over 20% of the pairs clip")
    return np.clip(p, 0.0, 1.0), float(a), float(a * beta), clip_count


def kmeans_split_loop(values) -> tuple[np.ndarray, float]:
    """2-means on log scores by a Python loop over every split of the sorted
    live log scores, keeping the first of equal costs: (labels, cutoff).
    Raises DegenerateError when no split exists."""
    values = np.asarray(values, dtype=np.float64)
    logv = np.full(values.size, -np.inf)
    live = values > KMEANS_FLOOR
    logv[live] = np.log(values[live])
    x = np.sort(logv[live])
    if x.size < 2 or x[0] == x[-1]:
        raise DegenerateError("no split")
    m = x.size
    prefix = np.concatenate([[0.0], np.cumsum(x)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(x * x)])
    best_cost, best_k = np.inf, None
    for k in range(1, m):
        if x[k] == x[k - 1]:
            continue
        left = prefix_sq[k] - prefix[k] ** 2 / k
        right = (prefix_sq[-1] - prefix_sq[k]) - (prefix[-1] - prefix[k]) ** 2 / (m - k)
        cost = left + right
        if cost < best_cost:
            best_cost, best_k = cost, k
    return logv >= x[best_k], math.exp(x[best_k])


def mann_whitney_auc(values, truth) -> float:
    """Pairwise AUC with half credit for ties, by explicit double loop."""
    values = np.asarray(values, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    pos = values[truth]
    neg = values[~truth]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (pos.size * neg.size)


def dense_eigenvector_centrality(g: SparseGraph) -> np.ndarray:
    """The all-ones vector projected onto the eigenspace of the largest
    eigenvalue of the dense adjacency matrix (np.linalg.eigh), then
    normalised: what power iteration from the all-ones vector converges to,
    also where several components share the leading eigenvalue."""
    a = np.zeros((g.n, g.n))
    i, j = g.edge_array().T
    a[i, j] = a[j, i] = 1.0
    vals, vecs = np.linalg.eigh(a)
    top = vecs[:, vals >= vals[-1] - 1e-9 * max(1.0, vals[-1])]
    x = top @ (top.T @ np.ones(g.n))
    return x / np.linalg.norm(x)


def local_cc_product(g: SparseGraph) -> np.ndarray:
    """Local clustering coefficient 2 T_i / (d_i (d_i - 1)) from the whole
    product A @ A masked to A, whose row sums are twice the triangle counts."""
    deg = np.diff(g.indptr).astype(np.float64)
    values = np.zeros(g.n)
    if g.m:
        adj = g.to_csr()
        tri = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() / 2.0
        eligible = deg >= 2
        denom = deg * (deg - 1.0)
        values[eligible] = 2.0 * tri[eligible] / denom[eligible]
    return values


def brute_force_coreness(g: SparseGraph) -> np.ndarray:
    """Core numbers by literally re-running k-core deletion for every k."""
    n = g.n
    core = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        alive = np.ones(n, dtype=bool)
        changed = True
        while changed:
            changed = False
            for v in range(n):
                if alive[v]:
                    live_deg = int(np.sum(alive[g.adjacency[v]]))
                    if live_deg < k:
                        alive[v] = False
                        changed = True
        if not alive.any():
            return core
        core[alive] = k
        k += 1


def definition1_residual(p: np.ndarray, periphery: np.ndarray) -> float:
    """Largest off-diagonal spread within any periphery row (0 means every
    periphery row is exactly constant off the diagonal)."""
    periphery = np.asarray(periphery, dtype=bool)
    worst = 0.0
    off = ~np.eye(len(p), dtype=bool)
    for i in np.nonzero(periphery)[0]:
        row = p[i][off[i]]
        if row.size:
            worst = max(worst, float(row.max() - row.min()))
    return worst


def definition2_residual(p: np.ndarray, periphery: np.ndarray) -> float:
    """Deviation of periphery-touching entries from d_i d_j / sum(d).

    Degrees follow the ignoring-self-loops convention: the implied
    diagonal d_i^2/sum(d) of a periphery node is added back to its row
    sum, solved by fixed-point iteration from the observed row sums.
    """
    periphery = np.asarray(periphery, dtype=bool)
    s = p.sum(axis=1)
    d = s.copy()
    for _ in range(200):  # fixed-point steps for the implied periphery degrees
        total = d.sum()
        if total <= 0.0:
            return 0.0 if not periphery.any() else float(np.abs(p).max())
        nxt = s.copy()
        nxt[periphery] = s[periphery] + d[periphery] ** 2 / total
        if np.max(np.abs(nxt - d)) <= 1e-15 * max(1.0, total):
            d = nxt
            break
        d = nxt
    total = d.sum()
    model = np.outer(d, d) / total
    touch = periphery[:, np.newaxis] | periphery[np.newaxis, :]
    np.fill_diagonal(touch, False)
    if not touch.any():
        return 0.0
    return float(np.abs(p - model)[touch].max())


def periphery_product_residual(entries: np.ndarray, periphery: np.ndarray) -> float:
    """Deviation of periphery-touching entries from an exact product form
    phi_i * phi_j.

    The product form is necessary for Definition 2 but not sufficient:
    Definition 2 also needs phi proportional to the expected degrees,
    which definition2_residual checks.  Scaling the core block and the
    periphery-touching entries of a Definition-2 matrix by two different
    constants keeps the product form and still leaves Definition 2.
    """
    periphery = np.asarray(periphery, dtype=bool)
    peri_idx = np.nonzero(periphery)[0]
    if peri_idx.size == 0:
        return 0.0
    touch = periphery[:, np.newaxis] | periphery[np.newaxis, :]
    np.fill_diagonal(touch, False)
    if entries[touch].max() <= 0.0:
        return 0.0
    if peri_idx.size == 1:
        return 0.0  # a single row is always expressible as a product
    # anchor at the periphery node with the heaviest row
    a = int(peri_idx[np.argmax(entries[peri_idx].sum(axis=1))])
    others = peri_idx[peri_idx != a]
    b = int(others[np.argmax(entries[a, others])])
    if entries[a, b] <= 0.0:
        return float(np.abs(entries)[touch].max())
    rest = np.setdiff1d(np.arange(len(entries)), [a, b])
    if rest.size == 0:
        return 0.0  # n = 2: a single entry is trivially a product
    k = int(rest[np.argmax(entries[b, rest])])
    if entries[b, k] <= 0.0:
        return float(np.abs(entries)[touch].max())
    phi_a = np.sqrt(entries[a, k] * entries[a, b] / entries[b, k])
    if phi_a <= 0.0:
        return float(np.abs(entries)[touch].max())
    phi = entries[a] / phi_a
    phi[a] = phi_a
    return float(np.abs(entries - np.outer(phi, phi))[touch].max())
