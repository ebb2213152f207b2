"""Truncated eigendecomposition (ARPACK, via scipy's `eigsh`) and
spectral core scores.

The denoised estimate of the probability matrix is the rank-r
eigen-truncation of the adjacency matrix (signed eigenvalues retained).
Node scores measure the variation of the estimated probability rows:

    er score       s_i = || row_i(P_hat @ H) ||_2
    config score   s_i = || row_i(P_hat @ Dinv @ H) ||_2

with H = I - (1/n) 11^T the centering matrix and Dinv the inverse of the
observed degree diagonal.  Both are computed through an r x r Gram matrix,
so the dense estimate is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .graph import _ROW_BLOCK, ProbabilityMatrix, SparseGraph
from .synth import ConfigAssembly

__all__ = [
    "SpectralDecomposition",
    "CoreScores",
    "DiagnosticReport",
    "truncated_eigs",
    "er_scores",
    "config_scores",
    "scores_from_truth",
    "diagnostics",
    "write_scores_csv",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Top-r eigenpairs of a symmetric matrix, ordered by |eigenvalue|."""

    eigenvalues: np.ndarray  # (r,) signed, decreasing magnitude
    eigenvectors: np.ndarray  # (n, r) column-orthonormal
    residual: float | None = None  # max ||A u - lam u|| when solved, else None

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def source_n(self) -> int:
        return self.eigenvectors.shape[0]

    def __post_init__(self):
        if (self.eigenvalues.ndim != 1 or self.eigenvectors.ndim != 2
                or self.eigenvectors.shape[1] != self.eigenvalues.size):
            raise DomainError(f"eigenvalues {self.eigenvalues.shape} do not match "
                              f"eigenvectors {self.eigenvectors.shape}")
        lam = np.abs(self.eigenvalues)
        if np.any(lam[:-1] < lam[1:] - 1e-12 * max(1.0, lam[0] if lam.size else 1.0)):
            raise DomainError("eigenvalues not in decreasing magnitude order")
        gram = self.eigenvectors.T @ self.eigenvectors
        if np.max(np.abs(gram - np.eye(self.rank))) > 1e-8:
            raise DomainError("eigenvectors not orthonormal to 1e-8")


@dataclass(frozen=True)
class CoreScores:
    """Per-node core scores plus provenance."""

    values: np.ndarray
    model: str  # "er" or "config"
    excluded: tuple = field(default_factory=tuple)  # zero-degree nodes (config)


def _residual(mat, vals: np.ndarray, vecs: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(mat @ vecs - vecs * vals, axis=0)))


def _eigs(mat, r: int, tol: float, seed: int):
    """Top-r eigenpairs by magnitude of the symmetric sparse n x n matrix
    `mat`, 1 <= r < n.

    ARPACK's implicitly restarted Lanczos method (`eigsh`) does the work,
    started from a seeded vector so results are deterministic; dense
    `eigh` takes over where ARPACK cannot run (r >= n - 1).  Returns
    (vals, vecs, residual) with residual = max ||A u - lam u||; an ARPACK
    failure or a residual above tol * max(1, |lam_1|) raises ConvergenceError.
    """
    # imported on first solve, like scipy.sparse in `SparseGraph.to_csr`:
    # `generate` and `diagnose --truth-p` never load scipy
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = mat.shape[0]
    if mat.nnz == 0:
        # zero matrix: every eigenvalue is 0, any orthonormal set works
        return np.zeros(r), np.eye(n, r), 0.0
    if r >= n - 1:
        vals, vecs = np.linalg.eigh(mat.toarray())
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xE1,)))
        v0 = rng.standard_normal(n)
        try:
            vals, vecs = eigsh(mat, k=r, which="LM", tol=tol, v0=v0)
        except ArpackNoConvergence as exc:
            vals, vecs = exc.eigenvalues, exc.eigenvectors
            if vals.size == 0:
                # nothing converged: report the start vector's Rayleigh pair
                u = v0 / np.linalg.norm(v0)
                vals, vecs = np.array([u @ (mat @ u)]), u[:, np.newaxis]
            raise ConvergenceError(f"eigensolver did not converge to tol={tol}: {exc}",
                                   residual=_residual(mat, vals, vecs)) from None
    # stable tiebreak: larger magnitude first, then larger signed value
    idx = np.lexsort((-vals, -np.abs(vals)))[:r]
    vals, vecs = vals[idx], vecs[:, idx]
    residual = _residual(mat, vals, vecs)
    if residual > tol * max(1.0, float(np.abs(vals).max())):
        raise ConvergenceError(f"eigenpair residual {residual:.3g} above tol={tol}",
                               residual=residual)
    return vals, vecs, residual


def truncated_eigs(g: SparseGraph, r: int, seed: int = 0) -> SpectralDecomposition:
    """Top-r eigenpairs of the adjacency matrix, largest magnitude first.

    Magnitude ordering makes the truncation agree with the truncated SVD
    of the symmetric adjacency matrix.
    """
    if not 1 <= r < g.n:
        raise DomainError(f"rank r={r} must satisfy 1 <= r < n={g.n}")
    vals, vecs, residual = _eigs(g.to_csr(), r, DEFAULT_TOL, seed)
    return SpectralDecomposition(vals, vecs, residual=residual)


def _gram_scores(u: np.ndarray, lam: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Row norms of (U diag(lam) V^T H) via the r x r Gram matrix V^T H V."""
    vt1 = v.sum(axis=0)
    gram = v.T @ v - np.outer(vt1, vt1) / n
    g = lam[:, np.newaxis] * gram * lam[np.newaxis, :]
    sq = np.einsum("ij,jk,ik->i", u, g, u)
    return np.sqrt(np.maximum(sq, 0.0))


def er_scores(dec: SpectralDecomposition) -> CoreScores:
    """Centered row norms of the low-rank estimate (uninformative rows
    under an ER-type periphery score near zero)."""
    values = _gram_scores(dec.eigenvectors, dec.eigenvalues,
                          dec.eigenvectors, dec.source_n)
    return CoreScores(values=values, model="er")


def config_scores(dec: SpectralDecomposition, deg: np.ndarray) -> CoreScores:
    """Degree-corrected centered row norms of the low-rank estimate.

    Columns are scaled by inverse observed degree before centering.
    Zero-degree nodes carry no structure and would divide by zero; they
    are pre-classified as periphery (score 0) and reported in `excluded`.
    """
    deg = np.asarray(deg, dtype=np.float64)
    if deg.shape != (dec.source_n,):
        raise DomainError("degree vector length must match decomposition")
    if np.any(deg < 0):
        raise DomainError("degrees must be nonnegative")
    excluded = tuple(int(i) for i in np.nonzero(deg == 0)[0])
    inv = np.zeros_like(deg)
    positive = deg > 0
    inv[positive] = 1.0 / deg[positive]
    v = dec.eigenvectors * inv[:, np.newaxis]
    values = _gram_scores(dec.eigenvectors, dec.eigenvalues, v, dec.source_n)
    values[list(excluded)] = 0.0
    return CoreScores(values=values, model="config", excluded=excluded)


def scores_from_truth(p: ProbabilityMatrix, model: str) -> CoreScores:
    """Exact scores computed densely from a known probability matrix.

    Serves as the oracle in tests and feeds the signal-strength
    diagnostics; `model="config"` uses expected degrees (row sums) and
    requires them all positive.
    """
    n = p.n
    if model not in ("er", "config"):
        raise DomainError(f"unknown model {model!r}")
    d = p.expected_degrees() if model == "config" else 1.0
    if np.any(d <= 0):
        raise DomainError("config scores need strictly positive expected degrees")
    values, step = np.empty(n), max(1, _ROW_BLOCK // max(n, 1))
    # a block of rows at a time, so no n x n temporary is ever allocated
    for start in range(0, n, step):
        rows = p.entries[start:start + step] / d
        centered = rows - rows.mean(axis=1, keepdims=True)
        values[start:start + step] = np.linalg.norm(centered, axis=1)
    return CoreScores(values=values, model=model)


@dataclass(frozen=True)
class DiagnosticReport:
    """Signal-strength quantities of a known probability matrix."""

    p_star: float
    h_n: float | None
    h_prime_n: float | None
    eigenvalues: np.ndarray  # all n, decreasing magnitude
    gap_r: float

    def to_json_dict(self) -> dict:
        return {
            "p_star": self.p_star,
            "h_n": self.h_n,
            "h_prime_n": self.h_prime_n,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "gap_r": self.gap_r,
        }


def _er_assembly_eigvalsh(core: np.ndarray, n_periphery: int, level: float) -> np.ndarray:
    """Eigenvalues, unordered, of the ER-type assembly
    [[C, a J], [a J, a (J - I)]] with core block C, n_periphery periphery
    nodes and level a.

    Periphery vectors that sum to zero are eigenvectors with eigenvalue
    -a, so -a has multiplicity n_p - 1; the other eigenvalues are those
    of the (n_c + 1)-square reduced matrix
    [[C, a sqrt(n_p) 1], [a sqrt(n_p) 1^T, a (n_p - 1)]].
    """
    if n_periphery == 0:
        return np.linalg.eigvalsh(core)
    nc = core.shape[0]
    reduced = np.empty((nc + 1, nc + 1))
    reduced[:nc, :nc] = core
    reduced[:nc, nc] = reduced[nc, :nc] = level * np.sqrt(n_periphery)
    reduced[nc, nc] = level * (n_periphery - 1)
    return np.concatenate([np.linalg.eigvalsh(reduced), np.full(n_periphery - 1, -level)])


def _min_centered_row_norm(rows: np.ndarray, n_periphery: int, periphery_value: float) -> float:
    """Smallest centered row norm over rows that continue with n_periphery
    entries equal to periphery_value; centers `rows` in place."""
    n = rows.shape[1] + n_periphery
    mean = (rows.sum(axis=1) + n_periphery * periphery_value) / n
    rows -= mean[:, np.newaxis]
    sq = np.einsum("ij,ij->i", rows, rows) + n_periphery * (periphery_value - mean) ** 2
    return float(np.sqrt(sq.min()))


def _er_diagnostics(assembly):
    """(eigenvalues, p_star, h_n, h'_n) of an ER-type assembly, from its
    core block alone.

    Each core row is the core block's row followed by n_p entries equal to
    the level a, and each periphery row sums to a (n - 1).  So both minimum
    core scores take O(n_c^2), and the spectrum comes from the
    (n_c + 1)-square reduced matrix (see _er_assembly_eigvalsh)."""
    core, npr, level = assembly.core_block(), assembly.n_periphery, assembly.level
    eigvals = _er_assembly_eigvalsh(core, npr, level)
    p_star = float(max(core.max(), level) if npr else core.max())
    h_prime_n = None
    deg = core.sum(axis=1) + npr * level
    if np.all(deg > 0) and (npr == 0 or level > 0):
        # a periphery column over its degree: a / (a (n - 1))
        h_prime_n = _min_centered_row_norm(core / deg, npr, 1.0 / (assembly.n - 1))
    return eigvals, p_star, _min_centered_row_norm(core, npr, level), h_prime_n


def diagnostics(p, r: int, core_labels=None) -> DiagnosticReport:
    """Exact diagnostics: max entry, minimum core scores under both models
    (absent without core labels or with an empty core), the full
    magnitude-sorted spectrum, and the magnitude gap after rank r.

    p is a dense ProbabilityMatrix, which takes a dense eigvalsh; a
    configuration-type assembly (synth.ConfigAssembly), which is filled
    and takes the same path; or an ER-type assembly (synth.ErAssembly),
    whose core is its first n_core nodes, so it always has core scores,
    and whose diagnostics come from its core block alone (see
    _er_diagnostics).
    """
    if core_labels is not None:
        core_labels = np.asarray(core_labels, dtype=bool)
        if core_labels.shape != (p.n,):
            raise DomainError("core label length must match matrix")
    if not 1 <= r < p.n:
        raise DomainError(f"rank r={r} must satisfy 1 <= r < n={p.n}")
    if isinstance(p, ConfigAssembly):
        p = p.dense()
    if isinstance(p, ProbabilityMatrix):
        eigvals = np.linalg.eigvalsh(p.entries)
        p_star, h_n, h_prime_n = float(p.entries.max()), None, None
        if core_labels is not None and core_labels.any():
            h_n = float(scores_from_truth(p, "er").values[core_labels].min())
            if np.all(p.expected_degrees() > 0):
                h_prime_n = float(scores_from_truth(p, "config").values[core_labels].min())
    elif core_labels is None or np.array_equal(core_labels, np.arange(p.n) < p.core.n):
        eigvals, p_star, h_n, h_prime_n = _er_diagnostics(p)
    else:
        raise DomainError("an ER assembly's core is its first n_core nodes")
    eigvals = eigvals[np.lexsort((-eigvals, -np.abs(eigvals)))]
    return DiagnosticReport(p_star=p_star, h_n=h_n, h_prime_n=h_prime_n, eigenvalues=eigvals,
                            gap_r=float(np.abs(eigvals[r - 1]) - np.abs(eigvals[r])))


def write_scores_csv(path, scores: CoreScores) -> None:
    values = np.asarray(scores.values, dtype=np.float64).tolist()
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,score\n" + "".join([f"{i},{v!r}\n" for i, v in enumerate(values)]))
