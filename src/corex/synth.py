"""Synthetic core-periphery probability matrices.

Cores are drawn from graphons via latent uniforms; peripheries follow
either a constant (ER-type) connection level or a product-form
(configuration-type) pattern.  Two scalars, solved in closed form for
each periphery type, then hit a target overall density and
core/periphery expected-degree ratio.  Nodes are ordered core first,
periphery second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleError
from .graph import ProbabilityMatrix

__all__ = [
    "GraphonSpec",
    "SynthConfig",
    "RescaleResult",
    "GeneratedInstance",
    "graphon_by_number",
    "graphon_value",
    "sample_latents",
    "graphon_matrix",
    "graphon_core",
    "assemble_er",
    "sample_periphery_theta",
    "definition1_residual",
    "definition2_residual",
    "periphery_product_residual",
    "generate_instance",
    "PRESET_SIZES",
]

_DEFINITION2_MAX_ITER = 200  # fixed-point steps for the implied periphery degrees

PRESET_SIZES = {
    "balanced": (1000, 1000),
    "small-core": (700, 1300),
    "large-core": (1300, 700),
}


def _g1(mu, nu):
    # 6-block piecewise constant: k/7 on the k-th diagonal block, 0.3/7 off
    kmu = np.floor(mu * 6.0)
    knu = np.floor(nu * 6.0)
    interior_mu = (mu * 6.0 != kmu)  # strictly inside an open block
    interior_nu = (nu * 6.0 != knu)
    same = (kmu == knu) & interior_mu & interior_nu
    return np.where(same, (kmu + 1.0) / 7.0, 0.3 / 7.0)


def _g2(mu, nu):
    return np.sin(5.0 * np.pi * (mu + nu - 1.0) + 1.0) / 2.0 + 0.5


def _g3(mu, nu):
    return 1.0 / (1.0 + np.exp(15.0 * (0.8 * np.abs(mu - nu)) ** 0.8 - 0.1))


_GRAPHONS = {
    "table1_g1": _g1,
    "table1_g2": _g2,
    "table1_g3": _g3,
}


@dataclass(frozen=True)
class GraphonSpec:
    """A symmetric probability-valued function on the unit square."""

    kind: str  # table1_g1 | table1_g2 | table1_g3 | custom
    custom_fn: object = None

    def __post_init__(self):
        if self.kind == "custom":
            if self.custom_fn is None:
                raise DomainError("custom graphon needs custom_fn")
        elif self.kind not in _GRAPHONS:
            raise DomainError(f"unknown graphon kind {self.kind!r}")

    @property
    def fn(self):
        return self.custom_fn if self.kind == "custom" else _GRAPHONS[self.kind]


def graphon_by_number(number: int) -> GraphonSpec:
    """Graphon 1, 2, or 3 of the simulation designs."""
    if number not in (1, 2, 3):
        raise DomainError("graphon number must be 1, 2, or 3")
    return GraphonSpec(kind=f"table1_g{number}")


def graphon_value(spec: GraphonSpec, mu, nu):
    """Evaluate the graphon; scalar in, scalar out; arrays broadcast."""
    mu_a = np.asarray(mu, dtype=np.float64)
    nu_a = np.asarray(nu, dtype=np.float64)
    if np.any(mu_a < 0) or np.any(mu_a > 1) or np.any(nu_a < 0) or np.any(nu_a > 1):
        raise DomainError("graphon arguments must lie in [0, 1]")
    out = np.asarray(spec.fn(mu_a, nu_a), dtype=np.float64)
    out = np.broadcast_to(out, np.broadcast_shapes(mu_a.shape, nu_a.shape))
    if out.size and (out.min() < 0.0 or out.max() > 1.0):
        raise DomainError("graphon returned a value outside [0, 1]")
    if np.isscalar(mu) and np.isscalar(nu):
        return float(out)
    return out


def sample_latents(n: int, seed: int) -> np.ndarray:
    """The i.i.d. Uniform[0,1] latent positions; deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA0,)))
    return rng.random(n)


def graphon_matrix(spec: GraphonSpec, xi: np.ndarray) -> ProbabilityMatrix:
    """Evaluate the graphon on a latent vector; zero diagonal enforced."""
    xi = np.asarray(xi, dtype=np.float64)
    p = np.array(graphon_value(spec, xi[:, np.newaxis], xi[np.newaxis, :]))
    np.fill_diagonal(p, 0.0)
    return ProbabilityMatrix(p)


def graphon_core(spec: GraphonSpec, n_core: int, seed: int) -> ProbabilityMatrix:
    """Sample a core probability matrix from the graphon.

    The latent positions are recoverable by calling sample_latents with
    the same (n_core, seed).
    """
    if n_core < 2:
        raise DomainError("core needs at least 2 nodes")
    return graphon_matrix(spec, sample_latents(n_core, seed))


def assemble_er(core_p: ProbabilityMatrix, n_periphery: int,
                periphery_level: float) -> ProbabilityMatrix:
    """Attach an ER-type periphery: every pair touching a periphery node
    gets the constant periphery_level."""
    if not 0.0 < periphery_level < 1.0:
        raise DomainError("periphery_level must lie in (0, 1)")
    nc = core_p.n
    n = nc + n_periphery
    if n_periphery == 0:
        return core_p
    p = np.full((n, n), periphery_level, dtype=np.float64)
    p[:nc, :nc] = core_p.entries
    np.fill_diagonal(p, 0.0)
    return ProbabilityMatrix(p, _validated=True)


def sample_periphery_theta(core_p: ProbabilityMatrix, n_periphery: int,
                           seed: int) -> np.ndarray:
    """Periphery degree parameters, uniform on
    (0.5 * min core weight, 1.5 * max core weight).

    The range is in units of the unscaled core weights (core-block row
    sums).  generate_instance later multiplies the periphery weights by a
    factor beta relative to the core weights to reach the degree ratio
    (see _scale_config), so its periphery weights span beta times this
    range.
    """
    theta_core = core_p.expected_degrees()
    lo = 0.5 * float(theta_core.min())
    hi = 1.5 * float(theta_core.max())
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA1,)))
    return lo + (hi - lo) * rng.random(n_periphery)


@dataclass(frozen=True)
class SynthConfig:
    """One synthetic design point."""

    n_core: int
    n_periphery: int
    periphery: str  # "er" | "config"
    degree_ratio: float
    target_density: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.n_core < 1:
            raise DomainError("n_core must be >= 1")
        if self.n_periphery < 0:
            raise DomainError("n_periphery must be >= 0")
        if self.periphery not in ("er", "config"):
            raise DomainError("periphery must be 'er' or 'config'")
        if not 0.0 < self.target_density < 1.0:
            raise DomainError("target_density must lie in (0, 1)")
        if self.degree_ratio <= 0.0:
            raise DomainError("degree_ratio must be positive")

    @property
    def n(self) -> int:
        return self.n_core + self.n_periphery


@dataclass(frozen=True)
class RescaleResult:
    matrix: ProbabilityMatrix
    c_core: float
    c_periphery: float
    clip_count: int


def _clipped_result(scaled: np.ndarray, c_core: float, c_peri: float) -> RescaleResult:
    """Clip a scaled matrix to [0, 1] in place; fail past 20% of pairs."""
    n = scaled.shape[0]
    # a block of rows at a time, so the comparison never needs n x n bytes
    step = max(1, 2**20 // n)
    clip_count = sum(int(np.count_nonzero(scaled[i:i + step] > 1.0))
                     for i in range(0, n, step)) // 2
    if clip_count > 0.2 * ((n * n - n) // 2):
        raise InfeasibleError(
            f"rescale would clip {clip_count} pairs (> 20% of all pairs)"
        )
    if clip_count:
        np.clip(scaled, 0.0, 1.0, out=scaled)
    return RescaleResult(matrix=ProbabilityMatrix(scaled, _validated=True),
                         c_core=float(c_core), c_periphery=float(c_peri),
                         clip_count=clip_count)


def _scale_er(core_p: ProbabilityMatrix, level: float, cfg: SynthConfig) -> RescaleResult:
    """ER-type assembly that meets the density and degree ratio.

    The core block is scaled by c_core and the constant periphery level a
    by c_periphery, so an unclipped instance meets Definition 1 exactly.
    The block masses are w_cc = sum(core block), w_cp = a n_core n_periphery
    and w_pp = a n_periphery (n_periphery - 1).  With R' = degree_ratio *
    n_core / n_periphery, the degree ratio fixes k = c_core / c_periphery
    = (R' (w_cp + w_pp) - w_cp) / w_cc, and the density fixes
    c_periphery = target / (k w_cc + 2 w_cp + w_pp), where target is the
    required sum of off-diagonal entries.  Without a periphery only c_core
    is free, and c_periphery is 1.
    """
    nc, npr, n = cfg.n_core, cfg.n_periphery, cfg.n
    target_sum = cfg.target_density * (n * n - n)
    w_cc = float(core_p.entries.sum())
    if w_cc <= 0.0:
        raise InfeasibleError("core block has zero mass; cannot scale")
    if npr == 0:
        c_core, c_peri = target_sum / w_cc, 1.0
    else:
        w_cp = level * nc * npr
        w_pp = level * npr * (npr - 1)
        k = (cfg.degree_ratio * (nc / npr) * (w_cp + w_pp) - w_cp) / w_cc
        if k <= 0.0:
            raise InfeasibleError(
                f"degree ratio {cfg.degree_ratio} unreachable for this assembly"
            )
        c_peri = target_sum / (k * w_cc + 2.0 * w_cp + w_pp)
        c_core = k * c_peri
    p = np.full((n, n), c_peri * level)
    np.multiply(core_p.entries, c_core, out=p[:nc, :nc])
    np.fill_diagonal(p, 0.0)
    return _clipped_result(p, c_core, c_peri)


def _scale_config(core_p: ProbabilityMatrix, theta_peri: np.ndarray,
                  cfg: SynthConfig) -> RescaleResult:
    """Configuration-type assembly that meets the density and degree ratio
    while staying inside Definition 2.

    The core block and core weights are scaled by a, the periphery weights
    by b = beta * a, and the matrix is assembled from the scaled weights, so
    the expected degrees stay proportional to theta.  With S0 the core-block
    total, U = sum(u) and Q = sum(u^2) over the drawn periphery weights u and
    R' = degree_ratio * n_core / n_periphery, the degree ratio fixes beta as
    the positive root of

        R' (U^2 - Q) / S0 * beta^2 + (R' - 1) U beta - S0 = 0,

    and the density fixes a = target / (S0 + 2 beta U + beta^2 (U^2 - Q) / S0),
    where target is the required sum of off-diagonal entries.  c_core is a
    and c_periphery is b.
    """
    nc, npr = cfg.n_core, cfg.n_periphery
    theta_core = core_p.expected_degrees()
    s0 = float(theta_core.sum())
    if s0 <= 0.0:
        raise DomainError("core block has zero total weight")
    target_sum = cfg.target_density * (cfg.n * cfg.n - cfg.n)
    u_sum = float(theta_peri.sum())
    u_cross = u_sum * u_sum - float(np.dot(theta_peri, theta_peri))
    if npr == 0:
        beta = 0.0
    else:
        ratio = cfg.degree_ratio * nc / npr
        qa = ratio * u_cross / s0
        qb = (ratio - 1.0) * u_sum
        # positive root of qa b^2 + qb b - s0, written without cancellation;
        # with qa = 0 it reduces to the linear root s0 / qb
        denom = qb + np.sqrt(qb * qb + 4.0 * qa * s0)
        if not denom > 0.0:
            raise InfeasibleError(
                f"degree ratio {cfg.degree_ratio} unreachable for this assembly"
            )
        beta = 2.0 * s0 / denom
    a = target_sum / (s0 + 2.0 * beta * u_sum + beta * beta * u_cross / s0)
    theta = np.concatenate([a * theta_core, (a * beta) * theta_peri])
    p = np.outer(theta, theta) / (a * s0)
    p[:nc, :nc] = a * core_p.entries
    np.fill_diagonal(p, 0.0)
    return _clipped_result(p, a, a * beta)


def definition1_residual(p: ProbabilityMatrix, periphery: np.ndarray) -> float:
    """Largest off-diagonal spread within any periphery row (0 means every
    periphery row is exactly constant off the diagonal)."""
    periphery = np.asarray(periphery, dtype=bool)
    worst = 0.0
    off = ~np.eye(p.n, dtype=bool)
    for i in np.nonzero(periphery)[0]:
        row = p.entries[i][off[i]]
        if row.size:
            worst = max(worst, float(row.max() - row.min()))
    return worst


def definition2_residual(p: ProbabilityMatrix, periphery: np.ndarray) -> float:
    """Deviation of periphery-touching entries from d_i d_j / sum(d).

    Degrees follow the ignoring-self-loops convention: the implied
    diagonal d_i^2/sum(d) of a periphery node is added back to its row
    sum, solved by fixed-point iteration from the observed row sums.
    """
    periphery = np.asarray(periphery, dtype=bool)
    s = p.expected_degrees()
    d = s.copy()
    for _ in range(_DEFINITION2_MAX_ITER):
        total = d.sum()
        if total <= 0.0:
            return 0.0 if not periphery.any() else float(np.abs(p.entries).max())
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
    return float(np.abs(p.entries - model)[touch].max())


def periphery_product_residual(p: ProbabilityMatrix, periphery: np.ndarray) -> float:
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
    entries = p.entries
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
    rest = np.setdiff1d(np.arange(p.n), [a, b])
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


@dataclass(frozen=True)
class GeneratedInstance:
    """A fully assembled design point ready for sampling."""

    p: ProbabilityMatrix
    truth: np.ndarray  # bool, True = core
    adjacency_seed: int
    meta: dict = field(default_factory=dict)


def generate_instance(graphon: GraphonSpec, cfg: SynthConfig,
                      er_level: float | None = None) -> GeneratedInstance:
    """Build the ground-truth probability matrix for one design point.

    Sub-seeds for the latent positions, the periphery weights, and the
    adjacency sampling are derived from cfg.seed and echoed in the
    metadata so every artifact can be rebuilt from the meta record alone.

    ER-type: the core block is scaled by c_core and the periphery level by
    c_periphery, both solved in closed form from the block masses (see
    _scale_er), so an unclipped instance meets Definition 1 exactly.
    Configuration-type: the core weights are scaled by c_core and the
    periphery weights by c_periphery before assembly (see _scale_config),
    so an unclipped instance meets Definition 2 exactly.  The periphery
    weights are drawn on the sample_periphery_theta range and then scaled
    by c_periphery / c_core relative to the core weights; that factor is
    set by the degree ratio, so the final periphery weights are not
    confined to (0.5 min, 1.5 max) of the final core weights.
    """
    root = np.random.SeedSequence(cfg.seed)
    latents_seed, theta_seed, adjacency_seed = (
        int(s) for s in root.generate_state(3)
    )
    core = graphon_core(graphon, cfg.n_core, latents_seed)
    meta = {
        "graphon": graphon.kind,
        "n_core": cfg.n_core,
        "n_periphery": cfg.n_periphery,
        "periphery": cfg.periphery,
        "target_density": cfg.target_density,
        "degree_ratio": cfg.degree_ratio,
        "seed": cfg.seed,
        "latents_seed": latents_seed,
        "theta_seed": theta_seed,
        "adjacency_seed": adjacency_seed,
    }
    if cfg.periphery == "er":
        level = er_level if er_level is not None else core.off_diagonal_mean()
        if not 0.0 < level < 1.0:
            raise DomainError("ER periphery level must lie in (0, 1)")
        meta["er_level"] = level
        result = _scale_er(core, level, cfg)
    else:
        theta_peri = sample_periphery_theta(core, cfg.n_periphery, theta_seed)
        result = _scale_config(core, theta_peri, cfg)
        meta["theta_core_sum"] = float(core.expected_degrees().sum())
    meta["c_core"] = result.c_core
    meta["c_periphery"] = result.c_periphery
    meta["rescale_clip_count"] = result.clip_count
    meta["realized_density"] = result.matrix.off_diagonal_mean()
    truth = np.zeros(cfg.n, dtype=bool)
    truth[:cfg.n_core] = True
    return GeneratedInstance(p=result.matrix, truth=truth,
                             adjacency_seed=adjacency_seed, meta=meta)
