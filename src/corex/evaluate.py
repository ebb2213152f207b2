"""ROC evaluation, the simulation benchmark harness, and the eigengap
profiler.

ROC curves use the standard definitions: TPR = recovered core fraction,
FPR = mislabeled periphery fraction, with tied scores crossing the
threshold together; the trapezoidal AUC then equals the pairwise
Mann-Whitney statistic with half credit for ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines as bl
from .coreid import (CorePartition, kmeans_split, rank_candidates, select_rank_ecv,
                     threshold_config, threshold_er)
from .errors import DegenerateError, DomainError
from .graph import ProbabilityMatrix, _write_rows, average_density, degrees
from .spectral import config_scores, er_scores, truncated_eigs
from .synth import GraphonSpec, SynthConfig, design_record, generate_instance

__all__ = [
    "RocCurve",
    "ExperimentResult",
    "roc",
    "operating_point",
    "kcore_points",
    "run_experiment",
    "eigengap_profile",
    "write_roc_csv",
    "PROPOSED_METHODS",
    "BASELINE_METHODS",
    "ALL_METHODS",
]

PROPOSED_METHODS = ("proposed_er", "proposed_config")
BASELINE_METHODS = ("degree", "pagerank", "eigenvector", "local_cc", "kcore")
ALL_METHODS = PROPOSED_METHODS + BASELINE_METHODS


@dataclass(frozen=True)
class RocCurve:
    points: np.ndarray  # (k, 2) array of (fpr, tpr), (0,0) .. (1,1)
    auc: float


def roc(score_values, truth) -> RocCurve:
    """ROC curve from scores and boolean core labels, ties grouped."""
    values = np.asarray(score_values, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    if values.shape != truth.shape:
        raise DomainError("scores and truth must have the same length")
    n_core = int(truth.sum())
    n_peri = int((~truth).sum())
    if n_core == 0 or n_peri == 0:
        raise DomainError("truth must contain at least one core and one periphery node")
    order = np.argsort(-values, kind="stable")
    sorted_vals = values[order]
    sorted_truth = truth[order]
    # group ties: whole blocks of equal score cross the threshold together
    boundaries = np.nonzero(np.diff(sorted_vals))[0]
    block_ends = np.concatenate([boundaries + 1, [values.size]])
    tp = np.cumsum(sorted_truth)[block_ends - 1]
    fp = block_ends - tp
    tpr = np.concatenate([[0.0], tp / n_core])
    fpr = np.concatenate([[0.0], fp / n_peri])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(points=np.column_stack([fpr, tpr]), auc=auc)


def operating_point(partition: CorePartition, truth) -> tuple[float, float]:
    """(FPR, TPR) of a single hard partition."""
    truth = np.asarray(truth, dtype=bool)
    labels = partition.labels
    if labels.shape != truth.shape:
        raise DomainError("partition and truth must have the same length")
    n_core = int(truth.sum())
    n_peri = int((~truth).sum())
    tp = int((labels & truth).sum())
    fp = int((labels & ~truth).sum())
    tpr = tp / n_core if n_core else 0.0
    fpr = fp / n_peri if n_peri else 0.0
    return fpr, tpr


def kcore_points(coreness, truth) -> list[tuple[float, float]]:
    """One ROC-plane point per pruning level k = 0 .. max coreness + 1."""
    values = np.asarray(coreness, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    n_core = int(truth.sum())
    n_peri = int((~truth).sum())
    if n_core == 0 or n_peri == 0:
        raise DomainError("truth must contain both classes")
    levels = np.arange(int(values.max()) + 2)
    # nodes of a class at level k or above: its size less those below k
    tpr = (n_core - np.searchsorted(np.sort(values[truth]), levels)) / n_core
    fpr = (n_peri - np.searchsorted(np.sort(values[~truth]), levels)) / n_peri
    return list(zip(fpr.tolist(), tpr.tolist()))


def _arrowhead_extremes(lam: np.ndarray, z: np.ndarray, beta: float, delta: float) -> np.ndarray:
    """The four smallest and four largest eigenvalues (all of them when
    there are at most eight) of the arrowhead matrix
    [[diag(lam), beta z], [beta z^T, delta]], lam ascending.

    By Cauchy interlacing the k-th smallest eigenvalue mu_k lies in
    [lam_{k-1}, lam_k], with lam_{-1} and lam_n the bounds -+b, b >= the
    matrix norm.  For x inside that bracket, Sylvester's law of inertia
    applied to the Schur complement g(x) = delta - x - beta^2 sum_i
    z_i^2 / (lam_i - x) says that mu_k < x exactly when g(x) < 0.  So
    bisecting each bracket on the sign of g converges to mu_k, whatever
    the multiplicities in lam or the zeros in z: a bracket between equal
    poles is a single point, and a pole without weight is its own root.
    """
    bound = 2.0 * (np.abs(lam).max() + abs(delta) + beta * np.linalg.norm(z))
    edges = np.concatenate([[-bound], lam, [bound]])
    k = np.arange(lam.size + 1)
    if k.size > 8:
        k = np.concatenate([k[:4], k[-4:]])
    lo, hi = edges[k], edges[k + 1]
    weights = (beta * z) ** 2
    # a bracket wider than 4 ulps of the bound has its midpoint strictly
    # inside, so g is never evaluated at a pole
    tol = 4.0 * np.finfo(np.float64).eps * bound
    while (active := np.flatnonzero(hi - lo > tol)).size:
        mid = 0.5 * (lo[active] + hi[active])
        below = delta - mid - (weights / (lam - mid[:, np.newaxis])).sum(axis=1) < 0.0
        hi[active[below]] = mid[below]
        lo[active[~below]] = mid[~below]
    return 0.5 * (lo + hi)


def eigengap_profile(core_p: ProbabilityMatrix, periphery_sizes,
                     periphery_level: float) -> list[dict]:
    """Sweep periphery sizes around a fixed core and report how the
    third-to-fourth eigenvalue gap of the ER-type assembly behaves.

    The assembly [[C, a J], [a J, a (J - I)]] (a = periphery_level, n_p
    periphery nodes) is never built: its spectrum is -a with multiplicity
    n_p - 1 plus the eigenvalues of the (n_c + 1)-square reduced matrix
    [[C, a sqrt(n_p) 1], [a sqrt(n_p) 1^T, a (n_p - 1)]].  With
    C = Q diag(lam) Q^T, that matrix is orthogonally similar to the
    arrowhead with z = Q^T 1, beta = a sqrt(n_p) and delta = a (n_p - 1),
    so one eigh of C serves every size, and each size solves only for the
    arrowhead eigenvalues that can hold the four largest magnitudes.  Each
    record carries |lam_1|, the gap |lam_3| - |lam_4| and that gap over
    |lam_1|.  Negative sizes and a level outside (0, 1) are rejected
    before any spectrum is computed.
    """
    if core_p.n < 4:
        raise DomainError("core must have at least 4 nodes to report a 3-4 gap")
    if not 0.0 < periphery_level < 1.0:
        raise DomainError("periphery_level must lie in (0, 1)")
    sizes = [int(n_peri) for n_peri in periphery_sizes]
    if any(n_peri < 0 for n_peri in sizes):
        raise DomainError(f"periphery sizes must be nonnegative, got {sizes}")
    lam, q = np.linalg.eigh(core_p.entries)
    z = q.sum(axis=0)
    a = periphery_level
    records = []
    for n_peri in sizes:
        eigvals = lam if n_peri == 0 else np.concatenate([
            _arrowhead_extremes(lam, z, a * np.sqrt(n_peri), a * (n_peri - 1)),
            np.full(min(n_peri - 1, 4), -a)])
        mags = np.sort(np.abs(eigvals))[::-1]
        gap = float(mags[2] - mags[3])
        records.append({
            "n_periphery": n_peri,
            "lambda_1": float(mags[0]),
            "gap_3_4": gap,
            "normalized_gap": gap / float(mags[0]) if mags[0] > 0 else 0.0,
        })
    return records


@dataclass
class ExperimentResult:
    """Per-replicate AUCs and selected operating points for one design."""

    config: dict
    methods: tuple
    replicate_seeds: tuple
    aucs: dict = field(default_factory=dict)  # method -> list of AUC
    operating_points: dict = field(default_factory=dict)  # rule -> list of (fpr, tpr)
    chosen_ranks: list = field(default_factory=list)
    # per-replicate score arrays, method -> list, for the pooled ROC files
    score_vectors: dict = field(default_factory=dict)
    truth_vectors: list = field(default_factory=list)

    def mean_auc(self, method: str) -> float:
        return float(np.mean(self.aucs[method]))

    def se_auc(self, method: str) -> float:
        vals = np.asarray(self.aucs[method])
        if vals.size < 2:
            return 0.0
        return float(vals.std(ddof=1) / np.sqrt(vals.size))

    def summary_dict(self) -> dict:
        return {
            "config": self.config,
            "replicates": len(self.replicate_seeds),
            "replicate_seeds": list(self.replicate_seeds),
            "auc": {
                m: {"mean": self.mean_auc(m), "se": self.se_auc(m),
                    "values": [float(v) for v in self.aucs[m]]}
                for m in self.methods
            },
            "operating_points": {
                rule: [[float(a), float(b)] for a, b in pts]
                for rule, pts in self.operating_points.items()
            },
            "chosen_ranks": self.chosen_ranks,
        }


def _replicate_seed(master_seed: int, replicate: int) -> int:
    return int(np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(replicate,)).generate_state(1)[0])


def check_plan(methods, replicates: int) -> tuple:
    """The methods as a tuple, each known and named once, and replicates >= 1."""
    methods = tuple(methods)
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise DomainError(f"unknown methods: {sorted(unknown)}")
    if len(set(methods)) < len(methods):
        raise DomainError(f"methods name a method twice: {list(methods)}")
    if replicates < 1:
        raise DomainError("replicates must be >= 1")
    return methods


def run_experiment(graphon: GraphonSpec, cfg: SynthConfig, methods=ALL_METHODS,
                   replicates: int = 20, rank: int | str = 6,
                   eps: float = 0.01) -> ExperimentResult:
    """Replicate the simulation protocol for one design point.

    Per replicate: build the instance, draw one adjacency sample through
    GeneratedInstance.sample (so an ER-type instance never fills its n x n
    matrix), score the nodes with every requested method, collect AUCs and
    the score and truth vectors, and record the operating points of the
    threshold and 2-means selection rules (plus the k-core staircase).  With
    rank "auto" each replicate's rank is chosen by select_rank_ecv from
    rank_candidates(n).  cfg.seed is the master seed; every replicate
    derives its own seed from it.
    """
    methods = check_plan(methods, replicates)
    rep_seeds = tuple(_replicate_seed(cfg.seed, rep) for rep in range(replicates))
    result = ExperimentResult(
        config={**design_record(graphon, cfg), "rank": rank},
        methods=methods,
        replicate_seeds=rep_seeds,
        aucs={m: [] for m in methods},
        operating_points={},
    )
    need_spectral = any(m in PROPOSED_METHODS for m in methods)
    for rep, rep_seed in enumerate(rep_seeds):
        instance = generate_instance(graphon, replace(cfg, seed=rep_seed))
        truth = instance.truth
        g = instance.sample()
        del instance  # its core block, and a config instance's n x n matrix, end here
        p_hat = average_density(g)
        dec = None
        if need_spectral:
            r = rank
            if rank == "auto":
                r = select_rank_ecv(g, rank_candidates(g.n), seed=rep_seed).chosen_r
                result.chosen_ranks.append(r)
            dec = truncated_eigs(g, r, seed=rep_seed)
        result.truth_vectors.append(truth)
        for method in methods:
            if method in PROPOSED_METHODS:
                model = method.removeprefix("proposed_")
                if model == "er":
                    scores, threshold = er_scores(dec), threshold_er
                else:
                    scores, threshold = config_scores(dec, degrees(g)), threshold_config
                values = scores.values
                result.operating_points.setdefault(f"threshold_{model}", []).append(
                    operating_point(threshold(scores, p_hat, g.n, eps=eps), truth))
                try:
                    km = kmeans_split(scores)
                    result.operating_points.setdefault(f"kmeans_{model}", []).append(
                        operating_point(km, truth))
                except DegenerateError:
                    pass
            elif method != "kcore":  # degree, pagerank, eigenvector, local_cc
                values = getattr(bl, f"{method}_scores")(g)
            else:
                values = bl.coreness_scores(g)
                result.operating_points.setdefault("kcore", []).extend(
                    kcore_points(values, truth))
            result.aucs[method].append(roc(values, truth).auc)
            result.score_vectors.setdefault(method, []).append(values)
    return result


def write_roc_csv(path, curve: RocCurve, method: str) -> None:
    points = np.asarray(curve.points, dtype=np.float64).tolist()
    _write_rows(path, "method,fpr,tpr\n", [f"{method},{fpr!r},{tpr!r}\n" for fpr, tpr in points])
