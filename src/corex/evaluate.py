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
from .coreid import (CorePartition, kmeans_split, select_rank_ecv,
                     threshold_config, threshold_er)
from .errors import DegenerateError, DomainError
from .graph import ProbabilityMatrix, average_density, degrees, sample_adjacency
from .spectral import _er_assembly_eigvalsh, config_scores, er_scores, truncated_eigs
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
ECV_CANDIDATES = (1, 2, 3, 4, 5, 6, 7, 8)  # ranks run_experiment's ECV mode chooses from


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
    if isinstance(coreness, bl.BaselineScores):
        values = coreness.values
    else:
        values = np.asarray(coreness, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    n_core = int(truth.sum())
    n_peri = int((~truth).sum())
    if n_core == 0 or n_peri == 0:
        raise DomainError("truth must contain both classes")
    points = []
    max_k = int(values.max()) if values.size else 0
    for k in range(max_k + 2):
        keep = values >= k
        tp = int((keep & truth).sum())
        fp = int((keep & ~truth).sum())
        points.append((fp / n_peri, tp / n_core))
    return points


def eigengap_profile(core_p: ProbabilityMatrix, periphery_sizes,
                     periphery_level: float) -> list[dict]:
    """Sweep periphery sizes around a fixed core and report how the
    third-to-fourth eigenvalue gap of the ER-type assembly behaves.

    The assembly [[C, a J], [a J, a (J - I)]] (a = periphery_level, n_p
    periphery nodes) is never built: its spectrum is -a with multiplicity
    n_p - 1 plus the eigenvalues of the (n_c + 1)-square reduced matrix
    [[C, a sqrt(n_p) 1], [a sqrt(n_p) 1^T, a (n_p - 1)]].  Eigenvalues
    are magnitude-sorted; each record carries the raw gap
    |lam_3| - |lam_4| and the gap normalized by |lam_1|.  Negative sizes
    and a level outside (0, 1) are rejected before any spectrum is
    computed.
    """
    if core_p.n < 4:
        raise DomainError("core must have at least 4 nodes to report a 3-4 gap")
    if not 0.0 < periphery_level < 1.0:
        raise DomainError("periphery_level must lie in (0, 1)")
    sizes = [int(n_peri) for n_peri in periphery_sizes]
    if any(n_peri < 0 for n_peri in sizes):
        raise DomainError(f"periphery sizes must be nonnegative, got {sizes}")
    records = []
    for n_peri in sizes:
        eigvals = _er_assembly_eigvalsh(core_p.entries, n_peri, periphery_level)
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


def run_experiment(graphon: GraphonSpec, cfg: SynthConfig, methods=ALL_METHODS,
                   replicates: int = 20, rank_mode: str = "fixed", rank: int = 6,
                   eps: float = 0.01) -> ExperimentResult:
    """Replicate the simulation protocol for one design point.

    Per replicate: draw the ground-truth matrix and one adjacency sample,
    score the nodes with every requested method, collect AUCs and the
    score and truth vectors, and record the operating points of the
    threshold and 2-means selection rules (plus the k-core staircase).  In
    ECV mode the rank is chosen from ECV_CANDIDATES.  cfg.seed is the
    master seed; every replicate derives its own seed from it.
    """
    methods = tuple(methods)
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise DomainError(f"unknown methods: {sorted(unknown)}")
    if rank_mode not in ("fixed", "ecv"):
        raise DomainError("rank_mode must be 'fixed' or 'ecv'")
    if replicates < 1:
        raise DomainError("replicates must be >= 1")
    rep_seeds = tuple(_replicate_seed(cfg.seed, rep) for rep in range(replicates))
    result = ExperimentResult(
        config={**design_record(graphon, cfg), "rank_mode": rank_mode, "rank": rank},
        methods=methods,
        replicate_seeds=rep_seeds,
        aucs={m: [] for m in methods},
        operating_points={},
    )
    need_spectral = any(m in PROPOSED_METHODS for m in methods)
    for rep, rep_seed in enumerate(rep_seeds):
        instance = generate_instance(graphon, replace(cfg, seed=rep_seed))
        truth = instance.truth
        g = sample_adjacency(instance.p, instance.adjacency_seed)
        p_hat = average_density(g)
        dec = None
        if need_spectral:
            r = rank
            if rank_mode == "ecv":
                selection = select_rank_ecv(g, ECV_CANDIDATES, seed=rep_seed)
                r = selection.chosen_r
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
            elif method == "degree":
                values = bl.degree_scores(g).values
            elif method == "pagerank":
                values = bl.pagerank_scores(g).values
            elif method == "eigenvector":
                values = bl.eigenvector_scores(g).values
            elif method == "local_cc":
                values = bl.local_cc_scores(g).values
            else:  # kcore
                coreness = bl.coreness_scores(g)
                values = coreness.values
                result.operating_points.setdefault("kcore", []).extend(
                    kcore_points(coreness, truth))
            result.aucs[method].append(roc(values, truth).auc)
            result.score_vectors.setdefault(method, []).append(values)
    return result


def write_roc_csv(path, curve: RocCurve, method: str) -> None:
    points = np.asarray(curve.points, dtype=np.float64).tolist()
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("method,fpr,tpr\n" + "".join([f"{method},{fpr!r},{tpr!r}\n"
                                                for fpr, tpr in points]))
