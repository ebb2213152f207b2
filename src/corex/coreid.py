"""Turning scores into a core/periphery partition and picking the rank.

Selection rules: fixed-size top-k, the two theoretical score thresholds,
and 2-means on log scores.  The approximating rank is chosen by
edge-sampling cross-validation (hold out a share of the edges, refit the
low-rank estimate, compare it with the held-out edges and with a
reweighted sample of non-edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .graph import SparseGraph, _triangle_pairs
from .spectral import CoreScores, _eigs

__all__ = [
    "CorePartition",
    "RankSelection",
    "identify_top_k",
    "threshold_er",
    "threshold_config",
    "kmeans_split",
    "rank_candidates",
    "select_rank_ecv",
    "write_partition_csv",
]

ECV_DEFAULT_FOLDS = 3
ECV_DEFAULT_HOLDOUT = 0.1
KMEANS_FLOOR = 1e-12
_ECV_NON_EDGES_PER_EDGE = 10  # uniform non-edge draws per held-out edge, per fold
_ECV_PAIR_BLOCK = 1 << 15  # pairs scored at once: bounds the (pairs x rank) temporaries


@dataclass(frozen=True)
class CorePartition:
    """Boolean core labels plus how they were selected."""

    labels: np.ndarray  # (n,) bool, True = core
    selection_method: str  # "topk" | "threshold" | "kmeans"
    cutoff: float | None = None  # score threshold actually applied

    @property
    def n_core(self) -> int:
        return int(np.count_nonzero(self.labels))

    def __post_init__(self):
        if (self.cutoff is None) != (self.selection_method == "topk"):
            raise DomainError("cutoff present iff selection is not topk")


@dataclass(frozen=True)
class RankSelection:
    """Chosen approximating rank with the full cross-validation record."""

    chosen_r: int
    candidates: tuple
    candidate_losses: tuple  # fold-averaged held-out MSE, aligned with candidates
    folds: int
    holdout_fraction: float
    # the record behind the choice, kept out of to_json_dict:
    fold_losses: tuple = ()  # one tuple per fold, aligned with candidates
    fold_held_edges: tuple = ()  # held-out edges per fold
    fold_non_edges: tuple = ()  # sampled non-edges per fold, edge draws rejected

    def to_json_dict(self) -> dict:
        return {
            "chosen_r": self.chosen_r,
            "losses": {str(r): loss for r, loss in zip(self.candidates, self.candidate_losses)},
            "folds": self.folds,
            "holdout_fraction": self.holdout_fraction,
        }


def _score_values(scores) -> np.ndarray:
    if isinstance(scores, CoreScores):
        return np.asarray(scores.values, dtype=np.float64)
    return np.asarray(scores, dtype=np.float64)


def identify_top_k(scores, n_core: int) -> CorePartition:
    """Label the n_core largest scores as core; boundary ties go to the
    smaller node index."""
    values = _score_values(scores)
    n = values.size
    if not 0 <= n_core <= n:
        raise DomainError(f"n_core={n_core} out of range 0..{n}")
    labels = np.zeros(n, dtype=bool)
    # stable argsort on -values: equal scores keep ascending index order
    order = np.argsort(-values, kind="stable")
    labels[order[:n_core]] = True
    return CorePartition(labels=labels, selection_method="topk")


def _threshold(scores, model: str, p_hat: float, n: int, eps: float,
               cutoff_of) -> CorePartition:
    """Core = nodes scoring above cutoff_of(), once the arguments check out."""
    if isinstance(scores, CoreScores) and scores.model != model:
        raise DomainError(f"scores carry model {scores.model!r}, expected {model!r}")
    values = _score_values(scores)
    if values.size != n:
        raise DomainError("n does not match score vector length")
    if not 0.0 < p_hat <= 1.0:
        raise DomainError("p_hat must lie in (0, 1]")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    cutoff = cutoff_of()
    labels = values > cutoff
    return CorePartition(labels=labels, selection_method="threshold", cutoff=cutoff)


def threshold_er(scores, p_hat: float, n: int, eps: float = 0.01) -> CorePartition:
    """Core = nodes with score above sqrt(p_hat^(1-eps) * ln n)."""
    return _threshold(scores, "er", p_hat, n, eps,
                      lambda: math.sqrt(p_hat ** (1.0 - eps) * math.log(n)))


def threshold_config(scores, p_hat: float, n: int, eps: float = 0.01) -> CorePartition:
    """Core = nodes with score above sqrt(ln n) / (n * sqrt(p_hat^(1+eps)))."""
    return _threshold(scores, "config", p_hat, n, eps,
                      lambda: math.sqrt(math.log(n)) / (n * math.sqrt(p_hat ** (1.0 + eps))))


def kmeans_split(scores) -> CorePartition:
    """2-means on log scores; the cluster with the larger centroid is core.

    Scores at or below KMEANS_FLOOR (isolated nodes score 0) carry no log
    scale: they are labelled periphery and left out of the fit, so they
    cannot pull the low cluster onto themselves.  One-dimensional 2-means
    on the remaining log scores is solved exactly: every split of the
    sorted values is scanned and the within-cluster sum of squares
    minimized, so there is no initialization sensitivity.
    """
    values = _score_values(scores)
    n = values.size
    if n < 2:
        raise DomainError("kmeans split needs at least 2 scores")
    logv = np.full(n, -np.inf)
    live = values > KMEANS_FLOOR
    logv[live] = np.log(values[live])
    x = np.sort(logv[live])
    if x.size < 2 or x[0] == x[-1]:
        raise DegenerateError("fewer than two distinct scores above the floor; "
                              "no split exists")
    m = x.size
    prefix = np.cumsum(x)
    prefix_sq = np.cumsum(x * x)
    # entry k - 1 is the cost of the split with x[:k] low, for k = 1 .. m - 1
    k = np.arange(1, m)
    left = prefix_sq[:-1] - prefix[:-1] ** 2 / k
    right = (prefix_sq[-1] - prefix_sq[:-1]) - (prefix[-1] - prefix[:-1]) ** 2 / (m - k)
    cost = left + right
    cost[x[1:] == x[:-1]] = np.inf  # equal values cannot straddle a 2-means boundary
    cut_value = x[int(np.argmin(cost)) + 1]  # smallest log score in the core cluster
    labels = logv >= cut_value
    return CorePartition(labels=labels, selection_method="kmeans",
                         cutoff=float(math.exp(cut_value)))


def _edge_split(g: SparseGraph, edges: np.ndarray, keys: np.ndarray,
                holdout_fraction: float, rng):
    """One fold's held-out sample: (held, kept, non_edges, non_edge_weight).

    `held` is round(holdout_fraction * m) edges drawn without replacement
    and `kept` the graph of the other edges.  `non_edges` are the
    accepted ones among uniform pair draws, edges (sorted keys i*n + j in
    `keys`) rejected; each stands for non_edge_weight of the
    holdout_fraction * (N - m) non-edges a held-out share of all N pairs
    would contain.
    """
    n, m, n_pairs = g.n, g.m, g.n * (g.n - 1) // 2
    n_held = int(round(holdout_fraction * m))
    held_mask = np.zeros(m, dtype=bool)
    held_mask[rng.choice(m, size=n_held, replace=False)] = True
    kept = SparseGraph.from_pairs(n, edges[~held_mask])
    non_edge_share = holdout_fraction * (n_pairs - m)
    draws = min(_ECV_NON_EDGES_PER_EDGE * n_held, int(round(non_edge_share)))
    if non_edge_share > 0:
        draws = max(draws, 1)
    # sorted draws give ascending keys, which searchsorted and the row
    # gathers in _fold_losses walk in order
    i, j = _triangle_pairs(n, np.sort(rng.integers(0, n_pairs, size=draws)))
    draw_keys = i * n + j
    # a draw past the last key lands on the sentinel -1, which no pair matches
    is_edge = np.append(keys, -1)[np.searchsorted(keys, draw_keys)] == draw_keys
    non_edges = np.column_stack([i[~is_edge], j[~is_edge]])
    weight = non_edge_share / len(non_edges) if len(non_edges) else 0.0
    return edges[held_mask], kept, non_edges, weight


def _fold_losses(vals: np.ndarray, vecs: np.ndarray, held: np.ndarray,
                 non_edges: np.ndarray, non_edge_weight: float, cands) -> np.ndarray:
    """Weighted mean clipped squared error of the rank-r predictions, for
    each r in cands, over the held-out edges (truth 1, weight 1) and the
    sampled non-edges (truth 0, weight non_edge_weight); 0 where nothing
    was held out."""
    pairs = np.concatenate([held, non_edges])
    truth = np.arange(len(pairs)) < len(held)
    weights = np.where(truth, 1.0, non_edge_weight)
    r_max, cols = max(cands), np.asarray(cands) - 1
    sums = np.zeros(len(cands))
    for lo in range(0, len(pairs), _ECV_PAIR_BLOCK):
        block = slice(lo, lo + _ECV_PAIR_BLOCK)
        i, j = pairs[block].T
        # column r - 1 is the rank-r prediction of every pair in the block
        partial = np.cumsum(vecs[i, :r_max] * vals[:r_max] * vecs[j, :r_max], axis=1)
        sums += weights[block] @ (np.clip(partial[:, cols], 0.0, 1.0) - truth[block, None]) ** 2
    total = weights.sum()
    return sums / total if total > 0 else np.zeros(len(cands))


def rank_candidates(n: int) -> list[int]:
    """The ranks `--rank auto` chooses from on an n-node graph: 1..10, each below n."""
    return [r for r in range(1, 11) if r < n]


def select_rank_ecv(g: SparseGraph, candidates, folds: int = ECV_DEFAULT_FOLDS,
                    holdout_fraction: float = ECV_DEFAULT_HOLDOUT,
                    seed: int = 0) -> RankSelection:
    """Pick the approximating rank by edge-sampling cross-validation
    (Li, Levina & Zhu, Biometrika 2020).

    Per fold: hold out a random holdout_fraction of the edges, rescale the
    kept edges by 1/(1-holdout_fraction), eigen-truncate at each candidate
    rank, clamp the reconstruction to [0,1], and score the held-out edges
    by squared error.  Non-edges are sampled uniformly, up to ten per
    held-out edge, and reweighted to stand for the holdout_fraction share
    of all non-edges, so the loss estimates the mean over a held-out share
    of all node pairs in O((m + s) r) time and memory for s samples.  The
    fold-averaged loss decides; ties go to the smallest rank.
    """
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise DomainError("candidate list is empty")
    if cands[0] < 1:
        raise DomainError("candidate ranks must be positive")
    if cands[-1] >= g.n:
        raise DomainError(f"candidate rank {cands[-1]} must be < n={g.n}")
    if not 0.0 < holdout_fraction < 1.0:
        raise DomainError("holdout_fraction must lie in (0, 1)")
    if folds < 1:
        raise DomainError("folds must be >= 1")
    n = g.n
    edges = g.edge_array()
    keys = edges[:, 0] * n + edges[:, 1]  # ascending: edge_array is sorted
    r_max = cands[-1]
    losses = np.zeros((folds, len(cands)))
    held_counts, non_edge_counts = [], []
    for fold in range(folds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(fold,)))
        held, kept, non_edges, weight = _edge_split(g, edges, keys, holdout_fraction, rng)
        vals, vecs, _ = _eigs(kept.to_csr() * (1.0 / (1.0 - holdout_fraction)), r_max,
                              tol=1e-6, seed=seed + 7919 * (fold + 1))
        losses[fold] = _fold_losses(vals, vecs, held, non_edges, weight, cands)
        held_counts.append(len(held))
        non_edge_counts.append(len(non_edges))
    mean_losses = losses.mean(axis=0)
    chosen = cands[int(np.argmin(mean_losses))]  # argmin takes first = smallest r
    return RankSelection(chosen_r=chosen, candidates=tuple(cands),
                         candidate_losses=tuple(float(v) for v in mean_losses),
                         folds=folds, holdout_fraction=holdout_fraction,
                         fold_losses=tuple(tuple(float(v) for v in row) for row in losses),
                         fold_held_edges=tuple(held_counts),
                         fold_non_edges=tuple(non_edge_counts))


def write_partition_csv(path, partition: CorePartition, scores) -> None:
    values = _score_values(scores)
    if values.size != partition.labels.size:
        raise DomainError("scores and partition length mismatch")
    flags = partition.labels.astype(np.uint8).tolist()
    rows = [f"{i},{flag},{v!r}\n" for i, (flag, v) in enumerate(zip(flags, values.tolist()))]
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,is_core,score\n" + "".join(rows))
