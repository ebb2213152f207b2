"""Independent oracles for the benchmark's correctness checks.

Nothing here imports corex. Each check recomputes what an output should
be with numpy and scipy (ARPACK through `eigsh`, rank statistics,
exhaustive 2-means, exact reduced spectra) and returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh
from scipy.stats import rankdata

LOG_FLOOR = 1e-12  # `corex identify --select kmeans` clamps scores here before the log
SCORE_RTOL = 1e-6  # scores vs the eigsh reference, relative to the largest score
EIG_RTOL = 1e-8  # eigenvalues vs the eigsh reference, relative to |lambda_1|
AUC_ATOL = 1e-9  # AUCs computed from identical scores
SPECTRUM_RTOL = 1e-9  # dense spectra vs their exact reduced form


def adjacency(n: int, edges: np.ndarray) -> sparse.csr_matrix:
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def top_eigenpairs(a: sparse.csr_matrix, r: int, seed: int):
    """The r largest-magnitude eigenpairs from ARPACK, magnitude order."""
    v0 = np.random.default_rng(seed).standard_normal(a.shape[0])
    vals, vecs = eigsh(a, k=r, which="LM", v0=v0)
    order = np.lexsort((-vals, -np.abs(vals)))
    return vals[order], vecs[:, order]


def centred_row_norms(vals, vecs, col_weight=None, chunk=512) -> np.ndarray:
    """Row norms of P_hat W H, formed row block by row block, where
    P_hat = U diag(vals) U^T, W = diag(col_weight) (identity if None) and
    H centres each row."""
    right = vecs.T if col_weight is None else vecs.T * col_weight[np.newaxis, :]
    left = vecs * vals[np.newaxis, :]
    out = np.empty(vecs.shape[0])
    for lo in range(0, vecs.shape[0], chunk):
        block = left[lo:lo + chunk] @ right
        block -= block.mean(axis=1, keepdims=True)
        out[lo:lo + chunk] = np.linalg.norm(block, axis=1)
    return out


def reference_scores(a: sparse.csr_matrix, vals, vecs, model: str) -> np.ndarray:
    if model == "er":
        return centred_row_norms(vals, vecs)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    scores = centred_row_norms(vals, vecs, inv)
    scores[deg == 0] = 0.0  # the documented convention for zero-degree nodes
    return scores


def mann_whitney_auc(scores, truth) -> float:
    """P(core score > periphery score), ties counted one half."""
    truth = np.asarray(truth, dtype=bool)
    ranks = rankdata(scores)
    n1, n0 = int(truth.sum()), int((~truth).sum())
    return float((ranks[truth].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def two_means_cost(x: np.ndarray, upper: np.ndarray) -> float:
    return float(sum(((x[m] - x[m].mean()) ** 2).sum() for m in (upper, ~upper)))


def best_two_means(x: np.ndarray):
    """Exhaustive 1-D 2-means: every cut between distinct sorted values.
    Returns (cost, threshold) with the upper group being x >= threshold."""
    xs = np.sort(x)
    c = xs - xs.mean()  # centred for accurate sums of squares
    k = np.arange(1, xs.size)
    s1, q1 = np.cumsum(c)[:-1], np.cumsum(c * c)[:-1]
    s_all, q_all = c.sum(), (c * c).sum()
    cost = (q1 - s1 * s1 / k) + ((q_all - q1) - (s_all - s1) ** 2 / (xs.size - k))
    cost[xs[1:] == xs[:-1]] = np.inf  # equal values cannot be cut apart
    best = int(np.argmin(cost))
    return float(cost[best]), float(xs[best + 1])


def read_csv_columns(path, expected_header):
    with open(path, "rt", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != expected_header:
        raise ValueError(f"{os.path.basename(path)}: header {rows[:1]}")
    return list(zip(*rows[1:])) if len(rows) > 1 else [[] for _ in expected_header]


def check_identify(out_dir, ref) -> list[str]:
    """ref: n, truth, scores (eigsh-based), rank, auc_bar."""
    problems = []
    with open(os.path.join(out_dir, "identify.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    if info["rank_used"] != ref["rank"]:
        problems.append(f"rank_used {info['rank_used']} != planted rank {ref['rank']}")
        return problems
    ids, values = read_csv_columns(os.path.join(out_dir, "scores.csv"), ["node_id", "score"])
    scores = np.array(values, dtype=np.float64)
    if [int(i) for i in ids] != list(range(ref["n"])):
        return problems + ["scores.csv does not list nodes 0..n-1 in order"]
    err = float(np.max(np.abs(scores - ref["scores"])) / np.max(ref["scores"]))
    if err > SCORE_RTOL:
        problems.append(f"scores differ from eigsh-based scores by {err:.2e} (relative)")
    auc = mann_whitney_auc(scores, ref["truth"])
    if auc < ref["auc_bar"]:
        problems.append(f"AUC {auc:.4f} against planted labels is below {ref['auc_bar']}")
    ids, flags, pscores = read_csv_columns(os.path.join(out_dir, "partition.csv"),
                                           ["node_id", "is_core", "score"])
    if [int(i) for i in ids] != list(range(ref["n"])) or list(pscores) != list(values):
        return problems + ["partition.csv rows do not match scores.csv"]
    labels = np.array(flags, dtype=int).astype(bool)
    if int(labels.sum()) != info["n_core"]:
        problems.append(f"identify.json n_core {info['n_core']} != {int(labels.sum())} labels")
    x = np.log(np.maximum(scores, LOG_FLOOR))
    best_cost, cut = best_two_means(x)
    if not np.array_equal(labels, x >= cut):
        cost = two_means_cost(x, labels) if 0 < labels.sum() < labels.size else np.inf
        if not cost <= best_cost * (1 + 1e-9) + 1e-12:
            problems.append(f"partition cost {cost:.6g} above the exhaustive 2-means "
                            f"optimum {best_cost:.6g}")
    return problems


def check_eigenvalues(program_vals, ref_vals) -> list[str]:
    program_vals = np.asarray(program_vals, dtype=np.float64)
    if program_vals.shape != ref_vals.shape:
        return [f"kept {program_vals.size} eigenvalues, expected {ref_vals.size}"]
    err = float(np.max(np.abs(program_vals - ref_vals)) / abs(ref_vals[0]))
    if err > EIG_RTOL:
        return [f"kept eigenvalues differ from eigsh by {err:.2e} (relative to |lambda_1|)"]
    return []


def check_bench(out_dir, ref) -> list[str]:
    """ref: ratio_tag, replicate_seed, truth, method_scores (method -> reference
    scores for the methods recomputed here), methods."""
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    setting = summary["settings"][0]
    if setting["replicate_seeds"] != [ref["replicate_seed"]]:
        return [f"replicate seeds {setting['replicate_seeds']} != [{ref['replicate_seed']}]"]
    for method in ref["methods"]:
        reported = setting["auc"][method]["values"]
        if len(reported) != 1:
            problems.append(f"{method}: {len(reported)} AUC values, expected 1")
            continue
        if method in ref["method_scores"]:
            auc = mann_whitney_auc(ref["method_scores"][method], ref["truth"])
            if abs(reported[0] - auc) > ref["auc_atol"][method]:
                problems.append(f"{method}: AUC {reported[0]!r} != Mann-Whitney {auc!r}")
        path = os.path.join(out_dir, f"roc_ratio{ref['ratio_tag']}_{method}.csv")
        names, fpr, tpr = read_csv_columns(path, ["method", "fpr", "tpr"])
        fpr, tpr = np.array(fpr, dtype=float), np.array(tpr, dtype=float)
        if set(names) != {method}:
            problems.append(f"{path}: method column is not {method}")
        if (fpr[0], tpr[0], fpr[-1], tpr[-1]) != (0.0, 0.0, 1.0, 1.0):
            problems.append(f"{method}: ROC does not run from (0,0) to (1,1)")
        if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0):
            problems.append(f"{method}: ROC is not monotone")
        trap = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
        if abs(trap - reported[0]) > AUC_ATOL:
            problems.append(f"{method}: ROC area {trap!r} != reported AUC {reported[0]!r}")
    return problems


def graphon1(x: np.ndarray) -> np.ndarray:
    """Graphon 1 of the paper's simulations on latents x: (k+1)/7 inside
    the k-th of six diagonal blocks, 0.3/7 elsewhere; zero diagonal."""
    block = np.floor(6.0 * x)
    p = np.where(block[:, None] == block[None, :], (block[:, None] + 1.0) / 7.0, 0.3 / 7.0)
    np.fill_diagonal(p, 0.0)
    return p


def er_assembly_spectrum(core: np.ndarray, n_peri: int, level: float) -> np.ndarray:
    """Exact spectrum of [[core, level], [level, level (zero diagonal)]]:
    -level with multiplicity n_peri - 1, plus the eigenvalues of the
    (n_core + 1)-square reduced matrix. Decreasing magnitude."""
    if n_peri == 0:
        vals = np.linalg.eigvalsh(core)
    else:
        nc = core.shape[0]
        reduced = np.empty((nc + 1, nc + 1))
        reduced[:nc, :nc] = core
        reduced[:nc, nc] = reduced[nc, :nc] = level * np.sqrt(n_peri)
        reduced[nc, nc] = level * (n_peri - 1)
        vals = np.concatenate([np.linalg.eigvalsh(reduced), np.full(n_peri - 1, -level)])
    return vals[np.lexsort((-vals, -np.abs(vals)))]


def check_diagnose(out_dir, ref) -> list[str]:
    """ref: core (unscaled graphon core), sweep, periphery_level, and the
    instance spectrum, frobenius2 and p_star."""
    problems = []
    with open(os.path.join(out_dir, "diagnostics.json"), encoding="utf-8") as fh:
        diag = json.load(fh)
    vals = np.array(diag["eigenvalues"], dtype=np.float64)
    exact = ref["instance_spectrum"]
    scale = abs(exact[0])
    if vals.shape != exact.shape:
        return [f"{vals.size} eigenvalues reported, expected {exact.size}"]
    if np.max(np.abs(vals - exact)) > SPECTRUM_RTOL * scale:
        problems.append("reported eigenvalues differ from the exact reduced spectrum")
    if abs(vals.sum()) > SPECTRUM_RTOL * scale * np.sqrt(vals.size):
        problems.append(f"eigenvalues sum to {vals.sum():.3e}, not to the trace 0")
    if abs(float(vals @ vals) - ref["frobenius2"]) > SPECTRUM_RTOL * ref["frobenius2"]:
        problems.append("squared eigenvalues do not sum to ||P||_F^2")
    if abs(diag["p_star"] - ref["p_star"]) > 1e-12:
        problems.append(f"p_star {diag['p_star']} != {ref['p_star']}")
    n_peri, lam1, gap, norm_gap = read_csv_columns(
        os.path.join(out_dir, "eigengap_sweep.csv"),
        ["n_periphery", "lambda_1", "gap_3_4", "normalized_gap"])
    if [int(v) for v in n_peri] != list(ref["sweep"]):
        return problems + [f"sweep rows {n_peri} != {ref['sweep']}"]
    for k, size in enumerate(ref["sweep"]):
        mags = np.abs(er_assembly_spectrum(ref["core"], size, ref["periphery_level"]))
        want_gap = mags[2] - mags[3]
        if abs(float(lam1[k]) - mags[0]) > SPECTRUM_RTOL * mags[0] or \
                abs(float(gap[k]) - want_gap) > SPECTRUM_RTOL * mags[0] or \
                abs(float(norm_gap[k]) - want_gap / mags[0]) > SPECTRUM_RTOL:
            problems.append(f"sweep row n_periphery={size} differs from the exact spectrum")
    return problems
