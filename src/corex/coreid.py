"""Turning scores into a core/periphery partition and picking the rank.

Selection rules: fixed-size top-k, the two theoretical score thresholds,
and 2-means on log scores.  The approximating rank is chosen by edge
cross-validation (mask node pairs, refit the low-rank estimate, compare
held-out entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .graph import SparseGraph
from .spectral import CoreScores, _eigs

__all__ = [
    "CorePartition",
    "RankSelection",
    "identify_top_k",
    "threshold_er",
    "threshold_config",
    "kmeans_split",
    "select_rank_ecv",
    "write_partition_csv",
]

ECV_DEFAULT_FOLDS = 3
ECV_DEFAULT_HOLDOUT = 0.1
KMEANS_FLOOR = 1e-12


@dataclass(frozen=True)
class CorePartition:
    """Boolean core labels plus how they were selected."""

    labels: np.ndarray  # (n,) bool, True = core
    n_core: int
    selection_method: str  # "topk" | "threshold" | "kmeans"
    cutoff: float | None = None  # score threshold actually applied

    def __post_init__(self):
        if self.n_core != int(np.count_nonzero(self.labels)):
            raise DomainError("n_core does not match labels")
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
    return CorePartition(labels=labels, n_core=n_core, selection_method="topk")


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
    return CorePartition(labels=labels, n_core=int(labels.sum()),
                         selection_method="threshold", cutoff=cutoff)


def threshold_er(scores, p_hat: float, n: int, eps: float = 0.01) -> CorePartition:
    """Core = nodes with score above sqrt(p_hat^(1-eps) * ln n)."""
    return _threshold(scores, "er", p_hat, n, eps,
                      lambda: math.sqrt(p_hat ** (1.0 - eps) * math.log(n)))


def threshold_config(scores, p_hat: float, n: int, eps: float = 0.01) -> CorePartition:
    """Core = nodes with score above sqrt(ln n) / (n * sqrt(p_hat^(1+eps)))."""
    return _threshold(scores, "config", p_hat, n, eps,
                      lambda: math.sqrt(math.log(n)) / (n * math.sqrt(p_hat ** (1.0 + eps))))


def kmeans_split(scores, floor: float = KMEANS_FLOOR) -> CorePartition:
    """2-means on log scores; the cluster with the larger centroid is core.

    Scores at or below `floor` (isolated nodes score 0) carry no log
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
    if floor <= 0:
        raise DomainError("floor must be positive")
    logv = np.full(n, -np.inf)
    live = values > floor
    logv[live] = np.log(values[live])
    x = np.sort(logv[live])
    if x.size < 2 or x[0] == x[-1]:
        raise DegenerateError("fewer than two distinct scores above the floor; "
                              "no split exists")
    m = x.size
    prefix = np.concatenate([[0.0], np.cumsum(x)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(x * x)])
    total, total_sq = prefix[-1], prefix_sq[-1]
    best_cost, best_k = np.inf, None
    for k in range(1, m):
        if x[k] == x[k - 1]:
            continue  # equal values cannot straddle a 2-means boundary
        left = prefix_sq[k] - prefix[k] ** 2 / k
        right = (total_sq - prefix_sq[k]) - (total - prefix[k]) ** 2 / (m - k)
        cost = left + right
        if cost < best_cost:
            best_cost, best_k = cost, k
    cut_value = x[best_k]  # smallest log score in the core cluster
    labels = logv >= cut_value
    return CorePartition(labels=labels, n_core=int(labels.sum()),
                         selection_method="kmeans", cutoff=float(math.exp(cut_value)))


def _pair_split(n: int, holdout_fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Randomly mask a fixed fraction of the unordered node pairs.

    Returns (held_i, held_j) index arrays for the masked pairs i < j.
    """
    iu, ju = np.triu_indices(n, k=1)
    n_pairs = iu.size
    n_hold = int(round(holdout_fraction * n_pairs))
    n_hold = min(max(n_hold, 1), n_pairs - 1)
    perm = rng.permutation(n_pairs)
    hold = perm[:n_hold]
    return iu[hold], ju[hold]


def select_rank_ecv(g: SparseGraph, candidates, folds: int = ECV_DEFAULT_FOLDS,
                    holdout_fraction: float = ECV_DEFAULT_HOLDOUT,
                    seed: int = 0) -> RankSelection:
    """Pick the approximating rank by edge cross-validation.

    Per fold: mask a random holdout_fraction of unordered pairs, zero them
    out, rescale the kept entries by 1/(1-holdout_fraction), eigen-truncate
    at each candidate rank, clamp the reconstruction to [0,1], and score
    the masked entries by squared error.  The fold-averaged loss decides;
    ties go to the smallest rank.
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
    adj = g.to_csr()
    r_max = cands[-1]
    losses = np.zeros((folds, len(cands)))
    for fold in range(folds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(fold,)))
        hi, hj = _pair_split(n, holdout_fraction, rng)
        mask = SparseGraph.from_pairs(n, np.column_stack([hi, hj])).to_csr()
        kept = adj - adj.multiply(mask)
        kept = kept * (1.0 / (1.0 - holdout_fraction))
        kept.eliminate_zeros()
        if kept.nnz == 0:
            vals = np.zeros(r_max)
            vecs = np.zeros((n, r_max))
            vecs[np.arange(r_max), np.arange(r_max)] = 1.0
        else:
            # predictions tolerate loose eigenpairs; never abort a fold
            vals, vecs, _ = _eigs(kept, r_max, tol=1e-6,
                                  seed=seed + 7919 * (fold + 1), strict=False)
        truth = np.asarray(adj[hi, hj]).ravel()
        # column r - 1 is the rank-r prediction of every held-out pair
        partial = np.cumsum(vecs[hi, :r_max] * vals[:r_max] * vecs[hj, :r_max], axis=1)
        for ci, r in enumerate(cands):
            pred = np.clip(partial[:, r - 1], 0.0, 1.0)
            losses[fold, ci] = float(np.mean((pred - truth) ** 2))
        del partial  # (pairs x r_max) floats: free them before the next fold's split
    mean_losses = losses.mean(axis=0)
    chosen = cands[int(np.argmin(mean_losses))]  # argmin takes first = smallest r
    return RankSelection(chosen_r=chosen, candidates=tuple(cands),
                         candidate_losses=tuple(float(v) for v in mean_losses),
                         folds=folds, holdout_fraction=holdout_fraction)


def write_partition_csv(path, partition: CorePartition, scores) -> None:
    values = _score_values(scores)
    if values.size != partition.labels.size:
        raise DomainError("scores and partition length mismatch")
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,is_core,score\n")
        for i, (flag, v) in enumerate(zip(partition.labels, values)):
            fh.write(f"{i},{int(flag)},{float(v)!r}\n")
