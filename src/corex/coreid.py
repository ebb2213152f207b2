"""The pipeline's two decisions: the rank, and the core/periphery partition.

`decompose` solves at a fixed rank or at the one that edge-sampling
cross-validation picks (hold out a share of the edges, refit the low-rank
estimate, compare it with the held-out edges and a reweighted sample of
non-edges).  `select` applies a rule: fixed-size top-k, the score threshold
of the scores' periphery model, or 2-means on log scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .graph import SparseGraph, _triangle_pairs, _write_rows
from .spectral import CoreScores, _eigs, truncated_eigs

__all__ = [
    "CorePartition",
    "RankSelection",
    "decompose",
    "select",
    "identify_top_k",
    "threshold",
    "kmeans_split",
    "select_rank_ecv",
    "write_partition_csv",
]

ECV_FOLDS = 3
ECV_HOLDOUT = 0.1  # share of the edges each fold holds out
# each fold's eigensolve tolerance: most rank-10 pairs lie in the slow noise bulk,
# and at 1e-2 the loss gaps between adjacent ranks stay within a few percent
ECV_TOL = 1e-2
KMEANS_FLOOR = 1e-12
_ECV_NON_EDGES_PER_EDGE = 10  # uniform non-edge draws per held-out edge, per fold
_ECV_PAIR_BLOCK = 1 << 15  # pairs scored at once: bounds the (pairs x rank) temporaries


@dataclass(frozen=True)
class CorePartition:
    """Boolean core labels plus the score cutoff that selected them."""

    labels: np.ndarray  # (n,) bool, True = core
    cutoff: float | None = None  # score threshold applied; None for top-k

    @property
    def n_core(self) -> int:
        return int(np.count_nonzero(self.labels))


@dataclass(frozen=True)
class RankSelection:
    """Chosen approximating rank with the full cross-validation record."""

    chosen_r: int
    candidates: tuple
    candidate_losses: tuple  # fold-averaged held-out MSE, aligned with candidates
    # the record behind the choice, kept out of to_json_dict:
    fold_losses: tuple = ()  # one tuple per fold, aligned with candidates
    fold_held_edges: tuple = ()  # held-out edges per fold
    fold_non_edges: tuple = ()  # sampled non-edges per fold, edge draws rejected

    def to_json_dict(self) -> dict:
        return {
            "chosen_r": self.chosen_r,
            "losses": {str(r): loss for r, loss in zip(self.candidates, self.candidate_losses)},
            "folds": ECV_FOLDS,
            "holdout_fraction": ECV_HOLDOUT,
        }


def identify_top_k(scores: CoreScores, n_core: int) -> CorePartition:
    """Label the n_core largest scores as core; boundary ties go to the
    smaller node index."""
    values = scores.values
    n = values.size
    if not 0 <= n_core <= n:
        raise DomainError(f"n_core={n_core} out of range 0..{n}")
    labels = np.zeros(n, dtype=bool)
    # stable argsort on -values: equal scores keep ascending index order
    order = np.argsort(-values, kind="stable")
    labels[order[:n_core]] = True
    return CorePartition(labels=labels)


def threshold(scores: CoreScores, p_hat: float, eps: float = 0.01) -> CorePartition:
    """Core = nodes scoring above the cutoff of the scores' periphery model,
    where n = len(scores): sqrt(p_hat^(1-eps) * ln n) for ER-type, and
    sqrt(ln n) / (n * sqrt(p_hat^(1+eps))) for configuration-type."""
    if not 0.0 < p_hat <= 1.0:
        raise DomainError("p_hat must lie in (0, 1]")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    n = scores.values.size
    if n == 0:
        raise DomainError("threshold needs at least one score")
    if scores.model == "er":
        cutoff = math.sqrt(p_hat ** (1.0 - eps) * math.log(n))
    else:
        cutoff = math.sqrt(math.log(n)) / (n * math.sqrt(p_hat ** (1.0 + eps)))
    return CorePartition(labels=scores.values > cutoff, cutoff=cutoff)


def kmeans_split(scores: CoreScores) -> CorePartition:
    """2-means on log scores; the cluster with the larger centroid is core.

    Scores at or below KMEANS_FLOOR (isolated nodes score 0) carry no log
    scale: they are labelled periphery and left out of the fit, so they
    cannot pull the low cluster onto themselves.  One-dimensional 2-means
    on the remaining log scores is solved exactly: every split of the
    sorted values is scanned and the within-cluster sum of squares
    minimized, so there is no initialization sensitivity.
    """
    values = scores.values
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
    return CorePartition(labels=labels, cutoff=float(math.exp(cut_value)))


def _edge_split(g: SparseGraph, edges: np.ndarray, keys: np.ndarray, rng):
    """One fold's held-out sample: (held, kept, non_edges, non_edge_weight).

    `held` is round(ECV_HOLDOUT * m) edges drawn without replacement
    and `kept` the graph of the other edges.  `non_edges` are the
    accepted ones among uniform pair draws, edges (sorted keys i*n + j in
    `keys`) rejected; each stands for non_edge_weight of the
    ECV_HOLDOUT * (N - m) non-edges a held-out share of all N pairs
    would contain.
    """
    n, m, n_pairs = g.n, g.m, g.n * (g.n - 1) // 2
    n_held = int(round(ECV_HOLDOUT * m))
    held_mask = np.zeros(m, dtype=bool)
    held_mask[rng.choice(m, size=n_held, replace=False)] = True
    kept = SparseGraph.from_pairs(n, edges[~held_mask])
    non_edge_share = ECV_HOLDOUT * (n_pairs - m)
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


def select_rank_ecv(g: SparseGraph, candidates, seed: int = 0) -> RankSelection:
    """Pick the approximating rank by edge-sampling cross-validation
    (Li, Levina & Zhu, Biometrika 2020) over ECV_FOLDS (3) folds.

    Per fold: hold out a random ECV_HOLDOUT share (0.1) of the edges,
    rescale the kept edges by 1/(1-ECV_HOLDOUT), eigen-truncate at each
    candidate rank (one solve at tolerance ECV_TOL for the largest), clamp
    the reconstruction to [0,1], and score the held-out edges by squared
    error.  Non-edges are sampled uniformly, up to ten per held-out edge,
    and reweighted to stand for the ECV_HOLDOUT share of all non-edges, so
    the loss estimates the mean over a held-out share of all node pairs in
    O((m + s) r) time and memory for s samples.
    The fold-averaged loss decides; ties go to the smallest rank.
    """
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise DomainError("candidate list is empty")
    if cands[0] < 1:
        raise DomainError("candidate ranks must be positive")
    if cands[-1] >= g.n:
        raise DomainError(f"candidate rank {cands[-1]} must be < n={g.n}")
    n = g.n
    edges = g.edge_array()
    keys = edges[:, 0] * n + edges[:, 1]  # ascending: edge_array is sorted
    r_max = cands[-1]
    losses = np.zeros((ECV_FOLDS, len(cands)))
    held_counts, non_edge_counts = [], []
    for fold in range(ECV_FOLDS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(fold,)))
        held, kept, non_edges, weight = _edge_split(g, edges, keys, rng)
        op = kept.to_csr()
        op.data *= 1.0 / (1.0 - ECV_HOLDOUT)  # to_csr makes data afresh, so no copy is needed
        vals, vecs, _ = _eigs(op, r_max, tol=ECV_TOL, seed=seed + 7919 * (fold + 1))
        losses[fold] = _fold_losses(vals, vecs, held, non_edges, weight, cands)
        held_counts.append(len(held))
        non_edge_counts.append(len(non_edges))
    mean_losses = losses.mean(axis=0)
    chosen = cands[int(np.argmin(mean_losses))]  # argmin takes first = smallest r
    return RankSelection(chosen_r=chosen, candidates=tuple(cands),
                         candidate_losses=tuple(float(v) for v in mean_losses),
                         fold_losses=tuple(tuple(float(v) for v in row) for row in losses),
                         fold_held_edges=tuple(held_counts),
                         fold_non_edges=tuple(non_edge_counts))


def decompose(g: SparseGraph, rank, seed: int = 0):
    """(SpectralDecomposition, RankSelection or None) of g at `rank`: an integer
    rank is solved as given, with no selection; "auto" is first chosen by
    select_rank_ecv over ranks 1..min(10, n - 1), on the solve's seed."""
    selection = None
    if rank == "auto":
        selection = select_rank_ecv(g, range(1, min(10, g.n - 1) + 1), seed=seed)
        rank = selection.chosen_r
    return truncated_eigs(g, rank, seed=seed), selection


def select(scores: CoreScores, rule, p_hat: float, eps: float = 0.01) -> CorePartition:
    """The partition by `rule`: "threshold" (at p_hat and eps), "kmeans", or
    an integer count of top-scoring nodes."""
    if rule == "threshold":
        return threshold(scores, p_hat, eps=eps)
    return kmeans_split(scores) if rule == "kmeans" else identify_top_k(scores, rule)


def write_partition_csv(path, partition: CorePartition, scores: CoreScores) -> None:
    values = np.asarray(scores.values, dtype=np.float64)
    if values.size != partition.labels.size:
        raise DomainError("scores and partition length mismatch")
    flags = partition.labels.astype(np.uint8).tolist()
    _write_rows(path, "node_id,is_core,score\n",
                [f"{i},{flag},{v!r}\n" for i, (flag, v) in enumerate(zip(flags, values.tolist()))])
