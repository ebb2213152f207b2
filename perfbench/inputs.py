"""Planted-core test graphs for the benchmark, built in O(n + m) with numpy.

A graph has `n` nodes. The core is `communities` equal blocks of
`n_core // communities` nodes, with edge probability `p_in` inside a
block and `p_out` between blocks. Every pair that touches a periphery node follows one of
two periphery models:

- "er": constant probability `q` (ER-type);
- "config": Chung-Lu probability d_i d_j / S (configuration-type), where
  d is the expected degree and S its total. Periphery nodes get expected
  degree q * (n - 1) * w, where w is log-normal with mean 1 and log-sd
  `sigma`, floored at W_FLOOR, so their degrees are heterogeneous. Core
  degrees then follow from the core block, so pairs touching the
  periphery meet d_i d_j / S exactly (Definition 2 of the paper).

Both models are theta_i theta_j on pairs touching the periphery, with one
theta shared by all core nodes (sqrt(q) for all nodes under "er").

The planted rank is the rank of the noiseless matrix: communities + 1
under "er", and communities under "config", where Definition 2 puts the
periphery direction inside the span of the community indicators. Node
ids are shuffled, so the core is not a prefix of the ids. The program
under test sees only the edge file; the benchmark keeps the edge array
and the labels for its checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W_FLOOR = 0.5


@dataclass(frozen=True)
class Design:
    n: int
    n_core: int
    communities: int
    p_in: float
    p_out: float
    periphery: str  # "er" | "config"
    q: float
    sigma: float = 0.0  # log-sd of the config periphery weights


def _triangle_pairs(size: int, index: np.ndarray):
    """Decode indices into the row-major upper triangle of a size x size
    matrix (diagonal excluded) into (i, j) pairs with i < j."""
    def row_start(i):
        return i * (2 * size - i - 1) // 2

    b = 2.0 * size - 1.0
    i = np.floor((b - np.sqrt(b * b - 8.0 * index)) / 2.0).astype(np.int64)
    # floating-point guard: step the row back or forward by one if needed
    i = np.where(row_start(i) > index, i - 1, i)
    i = np.where(row_start(i + 1) <= index, i + 1, i)
    return i, index - row_start(i) + i + 1


def _bernoulli_block(rng, lo_a, size_a, lo_b, size_b, prob, same):
    """Exact Bernoulli(prob) sample of one block: a binomial edge count,
    then that many distinct pairs drawn without replacement."""
    pairs = size_a * (size_a - 1) // 2 if same else size_a * size_b
    count = rng.binomial(pairs, prob)
    index = rng.choice(pairs, size=count, replace=False)
    if same:
        i, j = _triangle_pairs(size_a, index)
    else:
        i, j = index // size_b, index % size_b
    return np.column_stack([lo_a + i, lo_b + j])


def _chung_lu_touching_periphery(rng, theta, n_core):
    """Pairs touching the periphery, each present with probability
    1 - exp(-theta_i theta_j) (about theta_i theta_j when small): a
    Poisson number of endpoint draws weighted by theta, merged."""
    total = theta.sum()
    draws = rng.poisson(total * total / 2.0)
    cdf = np.cumsum(theta / total)
    ends = np.searchsorted(cdf, rng.random((draws, 2)) * cdf[-1], side="right")
    ends = np.minimum(ends, theta.size - 1)
    keep = (ends[:, 0] != ends[:, 1]) & ((ends[:, 0] >= n_core) | (ends[:, 1] >= n_core))
    return ends[keep]


def generate(design: Design, seed: int):
    """Sample one graph. Returns (edges, is_core): an (m, 2) int64 array of
    distinct pairs with i < j, sorted, and a boolean core mask by node id."""
    d = design
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    size = d.n_core // d.communities
    parts = []
    for a in range(d.communities):
        for b in range(a, d.communities):
            prob = d.p_in if a == b else d.p_out
            parts.append(_bernoulli_block(rng, a * size, size, b * size, size,
                                          prob, a == b))
    n_core = size * d.communities  # core nodes are 0 .. n_core-1 before shuffling
    n_peri = d.n - n_core
    if d.periphery == "er":
        parts.append(_bernoulli_block(rng, 0, n_core, n_core, n_peri, d.q, False))
        parts.append(_bernoulli_block(rng, n_core, n_peri, n_core, n_peri, d.q, True))
    else:
        theta_core, theta_peri = periphery_weights(d, seed)
        theta = np.concatenate([np.full(n_core, theta_core), theta_peri])
        parts.append(_chung_lu_touching_periphery(rng, theta, n_core))
    perm = rng.permutation(d.n)
    pairs = perm[np.concatenate(parts)]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique(lo * np.int64(d.n) + hi)
    edges = np.column_stack([keys // d.n, keys % d.n])
    is_core = np.zeros(d.n, dtype=bool)
    is_core[perm[:n_core]] = True
    return edges, is_core


def periphery_weights(design: Design, seed: int):
    """(theta_core, theta_periphery) of the pairs touching the periphery."""
    d = design
    size = d.n_core // d.communities
    n_core = size * d.communities
    n_peri = d.n - n_core
    if d.periphery == "er":
        return np.sqrt(d.q), np.full(n_peri, np.sqrt(d.q))
    if d.periphery != "config":
        raise ValueError(f"unknown periphery {d.periphery!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    w = np.exp(d.sigma * rng.standard_normal(n_peri) - d.sigma ** 2 / 2.0)
    w = np.clip(w, W_FLOOR, None)  # keeps isolated nodes rare
    deg_peri = d.q * (d.n - 1) * w
    # core degree c_in * S / D_core, with D_core^2 = C * (D_core + D_peri)
    c_in = size * d.p_in + (n_core - size) * d.p_out  # diagonal kept
    big_c, big_dp = n_core * c_in, deg_peri.sum()
    d_core_total = (big_c + np.sqrt(big_c * big_c + 4.0 * big_c * big_dp)) / 2.0
    total = d_core_total + big_dp
    return c_in * total / d_core_total / np.sqrt(total), deg_peri / np.sqrt(total)


def noiseless_eigenvalues(design: Design, seed: int) -> np.ndarray:
    """Nonzero eigenvalues of the noiseless matrix with its diagonal kept,
    decreasing magnitude. They come from the (communities + 1)-square
    matrix that the community indicators and theta_periphery reduce it to.
    """
    d = design
    k = d.communities
    size = d.n_core // k
    theta_core, theta_peri = periphery_weights(d, seed)
    reduced = np.full((k + 1, k + 1), size * d.p_out)
    np.fill_diagonal(reduced, size * d.p_in)
    reduced[:k, k] = reduced[k, :k] = theta_core * np.sqrt(size) * np.linalg.norm(theta_peri)
    reduced[k, k] = theta_peri @ theta_peri
    vals = np.linalg.eigvalsh(reduced)
    return vals[np.argsort(-np.abs(vals))]


def write_edge_file(path, n: int, edges: np.ndarray) -> None:
    """Write the `n <count>` header and one tab-separated pair per line."""
    flat = edges.ravel().tolist()
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n {n}\n")
        fh.write(("%d\t%d\n" * len(edges)) % tuple(flat))


def write_labels(path, is_core: np.ndarray) -> None:
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,is_core\n")
        fh.writelines(f"{i},{int(c)}\n" for i, c in enumerate(is_core))
