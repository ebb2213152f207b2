"""Truncated eigendecomposition (ARPACK, via scipy's `eigsh`), spectral
core scores, and the exact spectra of known probability matrices: the
signal-strength diagnostics and the eigengap sweep.

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
from .graph import _ROW_BLOCK, SparseGraph, _write_rows
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
    "eigengap_profile",
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
    model: str  # "er" or "config": the periphery model, which picks the threshold
    excluded: tuple = field(default_factory=tuple)  # zero-degree nodes (config)

    def __post_init__(self):
        if self.model not in ("er", "config"):
            raise DomainError(f"unknown model {self.model!r}")


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


def scores_from_truth(p: np.ndarray, model: str) -> CoreScores:
    """Exact scores computed densely from a known probability matrix p:
    symmetric, zero diagonal, entries in [0, 1] (not checked).

    Serves as the oracle in tests and feeds the signal-strength
    diagnostics; `model="config"` uses expected degrees (row sums) and
    requires them all positive.
    """
    n = p.shape[0]
    if model not in ("er", "config"):
        raise DomainError(f"unknown model {model!r}")
    d = p.sum(axis=1) if model == "config" else 1.0
    if np.any(d <= 0):
        raise DomainError("config scores need strictly positive expected degrees")
    values, step = np.empty(n), max(1, _ROW_BLOCK // max(n, 1))
    # a block of rows at a time, so no n x n temporary is ever allocated
    for start in range(0, n, step):
        rows = p[start:start + step] / d
        centered = rows - rows.mean(axis=1, keepdims=True)
        values[start:start + step] = np.linalg.norm(centered, axis=1)
    return CoreScores(values=values, model=model)


@dataclass(frozen=True)
class DiagnosticReport:
    """Signal-strength quantities of a known probability matrix."""

    p_star: float
    h_n: float
    h_prime_n: float | None  # None when a core node has expected degree 0
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
    [[C, a sqrt(n_p) 1], [a sqrt(n_p) 1^T, a (n_p - 1)]].  With
    C = Q diag(lam) Q^T, the reduced matrix is orthogonally similar to the
    arrowhead [[diag(lam), beta z], [beta z^T, delta]] with z = Q^T 1,
    beta = a sqrt(n_p) and delta = a (n_p - 1), whose eigenvalues are the
    roots of a secular equation (Golub, SIAM Rev. 15, 1973)."""
    if n_periphery == 0:
        return np.linalg.eigvalsh(core)
    nc = core.shape[0]
    reduced = np.empty((nc + 1, nc + 1))
    reduced[:nc, :nc] = core
    reduced[:nc, nc] = reduced[nc, :nc] = level * np.sqrt(n_periphery)
    reduced[nc, nc] = level * (n_periphery - 1)
    return np.concatenate([np.linalg.eigvalsh(reduced), np.full(n_periphery - 1, -level)])


def _er_assembly_extremes(lam: np.ndarray, z: np.ndarray, n_periphery: int,
                          level: float) -> np.ndarray:
    """The eigenvalues of the ER-type assembly that can hold its four
    largest magnitudes, given its core's eigenvalues lam (ascending) and
    z = Q^T 1 (see _er_assembly_eigvalsh): lam without a periphery, else
    the four smallest and four largest arrowhead eigenvalues (all, when at
    most eight) and up to four copies of -a.

    By Cauchy interlacing the k-th smallest arrowhead eigenvalue mu_k lies
    in [lam_{k-1}, lam_k], with lam_{-1} and lam_n the bounds -+b, b >= the
    matrix norm.  For x inside that bracket, Sylvester's law of inertia
    applied to the Schur complement g(x) = delta - x - beta^2 sum_i
    z_i^2 / (lam_i - x) says that mu_k < x exactly when g(x) < 0.  So
    bisecting each bracket on the sign of g converges to mu_k, whatever
    the multiplicities in lam or the zeros in z: a bracket between equal
    poles is a single point, and a pole without weight is its own root.
    """
    if n_periphery == 0:
        return lam
    beta, delta = level * np.sqrt(n_periphery), level * (n_periphery - 1)
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
    return np.concatenate([0.5 * (lo + hi), np.full(min(n_periphery - 1, 4), -level)])


def eigengap_profile(core_p: np.ndarray, periphery_sizes,
                     periphery_level: float) -> list[dict]:
    """Sweep periphery sizes around a fixed core block core_p (symmetric,
    zero diagonal, entries in [0, 1]; not checked) and report how the
    third-to-fourth eigenvalue gap of the ER-type assembly behaves.

    The assembly is never built: one eigh of the core serves every size
    (see _er_assembly_extremes).  Each record carries |lam_1|, the gap
    |lam_3| - |lam_4| and that gap over |lam_1|.  Negative sizes and a
    level outside (0, 1) are rejected before any spectrum is computed.
    """
    if len(core_p) < 4:
        raise DomainError("core must have at least 4 nodes to report a 3-4 gap")
    if not 0.0 < periphery_level < 1.0:
        raise DomainError("periphery_level must lie in (0, 1)")
    sizes = [int(n_peri) for n_peri in periphery_sizes]
    if any(n_peri < 0 for n_peri in sizes):
        raise DomainError(f"periphery sizes must be nonnegative, got {sizes}")
    lam, q = np.linalg.eigh(core_p)
    z = q.sum(axis=0)
    records = []
    for n_peri in sizes:
        mags = np.sort(np.abs(_er_assembly_extremes(lam, z, n_peri, periphery_level)))[::-1]
        gap = float(mags[2] - mags[3])
        records.append({
            "n_periphery": n_peri,
            "lambda_1": float(mags[0]),
            "gap_3_4": gap,
            "normalized_gap": gap / float(mags[0]) if mags[0] > 0 else 0.0,
        })
    return records


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
    core scores take O(n_c^2), and the spectrum comes from
    _er_assembly_eigvalsh."""
    core, npr, level = assembly.core_block(), assembly.n_periphery, assembly.level
    eigvals = _er_assembly_eigvalsh(core, npr, level)
    p_star = float(max(core.max(), level) if npr else core.max())
    h_prime_n = None
    deg = core.sum(axis=1) + npr * level
    if np.all(deg > 0) and (npr == 0 or level > 0):
        # a periphery column over its degree: a / (a (n - 1))
        h_prime_n = _min_centered_row_norm(core / deg, npr, 1.0 / (assembly.n - 1))
    return eigvals, p_star, _min_centered_row_norm(core, npr, level), h_prime_n


def diagnostics(assembly, r: int) -> DiagnosticReport:
    """Exact diagnostics of a generated matrix, whose core is its first
    `len(assembly.core)` nodes: max entry, minimum core scores under both
    models, the full magnitude-sorted spectrum, and the magnitude gap after
    rank r.  A synth.ConfigAssembly is filled and takes a dense eigvalsh; a
    synth.ErAssembly reads its core block alone (see _er_diagnostics).  The
    assembly's core must be symmetric, with a zero diagonal and entries in
    [0, 1] (not checked)."""
    if not 1 <= r < assembly.n:
        raise DomainError(f"rank r={r} must satisfy 1 <= r < n={assembly.n}")
    if isinstance(assembly, ConfigAssembly):
        p, nc = assembly.dense(), len(assembly.core)
        eigvals, p_star, h_prime_n = np.linalg.eigvalsh(p), float(p.max()), None
        h_n = float(scores_from_truth(p, "er").values[:nc].min())
        if np.all(p.sum(axis=1) > 0):
            h_prime_n = float(scores_from_truth(p, "config").values[:nc].min())
    else:
        eigvals, p_star, h_n, h_prime_n = _er_diagnostics(assembly)
    eigvals = eigvals[np.lexsort((-eigvals, -np.abs(eigvals)))]
    return DiagnosticReport(p_star=p_star, h_n=h_n, h_prime_n=h_prime_n, eigenvalues=eigvals,
                            gap_r=float(np.abs(eigvals[r - 1]) - np.abs(eigvals[r])))


def write_scores_csv(path, scores: CoreScores) -> None:
    values = np.asarray(scores.values, dtype=np.float64).tolist()
    _write_rows(path, "node_id,score\n", [f"{i},{v!r}\n" for i, v in enumerate(values)])
