"""Synthetic core-periphery probability matrices.

Cores are drawn from graphons via latent uniforms; peripheries follow
either a constant (ER-type) connection level or a product-form
(configuration-type) pattern.  Two scalars, solved in closed form for
each periphery type, then hit a target overall density and
core/periphery expected-degree ratio.  Nodes are ordered core first,
periphery second.  Every matrix is a plain float64 ndarray, symmetric with
a zero diagonal and entries in [0, 1]: the three built-in graphons are
symmetric in floating point (mu + nu, |mu - nu| and the block indices
commute), so no fill is re-checked at run time; property tests hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import DomainError, InfeasibleError, ValidationError
from .graph import _ROW_BLOCK, SparseGraph, _sample_pairs, _triangle_pairs

__all__ = [
    "SynthConfig",
    "ErAssembly",
    "ConfigAssembly",
    "GeneratedInstance",
    "graphon_by_number",
    "graphon_value",
    "sample_latents",
    "graphon_matrix",
    "graphon_core",
    "sample_periphery_theta",
    "generate_instance",
    "DESIGN_FIELDS",
    "design_record",
    "read_design",
    "PRESET_SIZES",
]

PRESET_SIZES = {
    "balanced": (1000, 1000),
    "small-core": (700, 1300),
    "large-core": (1300, 700),
}
_SKIP_CHUNK = 2**16  # candidate pairs per chunk of the touching-pair sampler


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


def _graphon(kind: str):
    """The built-in graphon named kind: table1_g1, table1_g2 or table1_g3."""
    if not isinstance(kind, str) or kind not in _GRAPHONS:
        raise DomainError(f"unknown graphon kind {kind!r}")
    return _GRAPHONS[kind]


def graphon_by_number(number: int) -> str:
    """The kind of graphon 1, 2, or 3 of the simulation designs."""
    if number not in (1, 2, 3):
        raise DomainError("graphon number must be 1, 2, or 3")
    return f"table1_g{number}"


def graphon_value(kind: str, mu, nu):
    """Evaluate the built-in graphon `kind` on broadcast arrays of latents
    in [0, 1]; NaN is outside."""
    mu, nu = np.asarray(mu, dtype=np.float64), np.asarray(nu, dtype=np.float64)
    if not (((0.0 <= mu) & (mu <= 1.0)).all() and ((0.0 <= nu) & (nu <= 1.0)).all()):
        raise DomainError("graphon arguments must lie in [0, 1]")
    return np.asarray(_graphon(kind)(mu, nu))


def sample_latents(n: int, seed: int) -> np.ndarray:
    """The i.i.d. Uniform[0,1] latent positions; deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA0,)))
    return rng.random(n)


def graphon_matrix(kind: str, xi: np.ndarray) -> np.ndarray:
    """Evaluate the built-in graphon `kind` on a latent vector; zero diagonal enforced."""
    _graphon(kind)  # an unknown kind is refused even with no latents
    xi = np.asarray(xi, dtype=np.float64)
    p, step = np.empty((xi.size, xi.size)), max(1, _ROW_BLOCK // max(1, xi.size))
    for lo in range(0, xi.size, step):  # row blocks keep the graphon's temporaries small
        p[lo:lo + step] = graphon_value(kind, xi[lo:lo + step, np.newaxis], xi[np.newaxis, :])
    np.fill_diagonal(p, 0.0)
    return p


def graphon_core(kind: str, n_core: int, seed: int) -> np.ndarray:
    """Sample a core probability matrix from the built-in graphon `kind`.

    The latent positions are recoverable by calling sample_latents with
    the same (n_core, seed).
    """
    if n_core < 2:
        raise DomainError("core needs at least 2 nodes")
    return graphon_matrix(kind, sample_latents(n_core, seed))


def sample_periphery_theta(core_p: np.ndarray, n_periphery: int, seed: int) -> np.ndarray:
    """Periphery degree parameters, uniform on
    (0.5 * min core weight, 1.5 * max core weight).

    The range is in units of the unscaled core weights (core-block row
    sums).  generate_instance later multiplies the periphery weights by a
    factor beta relative to the core weights to reach the degree ratio
    (see _scale_config), so its periphery weights span beta times this
    range.
    """
    theta_core = core_p.sum(axis=1)
    lo = 0.5 * float(theta_core.min())
    hi = 1.5 * float(theta_core.max())
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA1,)))
    return lo + (hi - lo) * rng.random(n_periphery)


def _is_number(value, kind) -> bool:
    """True for an instance of the numbers ABC kind; bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthConfig:
    """One synthetic design point; construction checks every field's type
    and range, and raises DomainError on any fault."""

    graphon: str  # table1_g1 | table1_g2 | table1_g3
    n_core: int
    n_periphery: int
    periphery: str  # "er" | "config"
    degree_ratio: float
    target_density: float = 0.02
    seed: int = 0

    def __post_init__(self):
        _graphon(self.graphon)
        for name, low in (("n_core", 2), ("n_periphery", 0), ("seed", 0)):
            value = getattr(self, name)
            if not _is_number(value, Integral) or value < low:
                raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.periphery not in ("er", "config"):
            raise DomainError("periphery must be 'er' or 'config'")
        if not (_is_number(self.target_density, Real) and 0.0 < self.target_density < 1.0):
            raise DomainError(f"target_density must lie in (0, 1), got {self.target_density!r}")
        if not (_is_number(self.degree_ratio, Real) and 0.0 < self.degree_ratio < np.inf):
            raise DomainError(f"degree_ratio must be finite and > 0, got {self.degree_ratio!r}")

    @property
    def n(self) -> int:
        return self.n_core + self.n_periphery


DESIGN_FIELDS = ("graphon", "n_core", "n_periphery", "periphery", "target_density",
                 "degree_ratio", "seed")


def design_record(cfg: SynthConfig) -> dict:
    """The design point as an ordered record: the head of meta.json and of
    a bench setting's config."""
    return {k: getattr(cfg, k) for k in DESIGN_FIELDS}


def read_design(record: dict) -> SynthConfig:
    """The design point of a meta.json object; only its design fields are read.

    A missing field raises ValidationError, a field of the wrong type or
    range DomainError."""
    missing = set(DESIGN_FIELDS) - set(record)
    if missing:
        raise ValidationError(f"meta.json missing fields: {sorted(missing)}")
    return SynthConfig(**{k: record[k] for k in DESIGN_FIELDS})


@dataclass(frozen=True)
class _Assembly:
    """A probability matrix kept as its parts, nodes core first: the scaled,
    clipped core block min(c_core C, 1) of the unscaled core block C, and
    the pairs touching one of the n_periphery periphery nodes, whose
    probabilities the periphery type sets through `bound` (the largest of
    them) and `touching_p` (those of given pairs)."""

    core: np.ndarray  # C, unscaled
    c_core: float
    n_periphery: int

    @property
    def n(self) -> int:
        return len(self.core) + self.n_periphery

    def core_block(self, out=None) -> np.ndarray:
        """The scaled, clipped core block min(c_core C, 1), written into
        `out` when given."""
        block = np.multiply(self.core, self.c_core, out=out)
        return np.minimum(block, 1.0, out=block)

    def sample(self, seed: int) -> SparseGraph:
        """One Bernoulli draw in O(n_core^2 + n + m) time and memory.

        The core pairs are drawn from C at c_core, with no scaled copy of the block,
        as sample_adjacency draws min(c_core C, 1).  The pairs touching the periphery
        (core-periphery, then the periphery triangle, each row-major) are visited by
        geometric skipping at the bound q, the largest touching probability (Batagelj
        & Brandes, Phys. Rev. E 71, 036113, 2005), and each candidate is kept with
        probability p_ij / q by a uniform from a stream of its own (Miller & Hagberg,
        WAW 2011).  An ER-type candidate has p_ij / q exactly 1, so it is always kept.
        A q of 0 (a density that underflowed) draws no touching pair.  The draws go a
        chunk of candidates at a time, and the output does not depend on the chunk
        size: a skip past the last pair is clipped to land one past it, so the running
        sum stays within int64 for any n up to MAX_NODES."""
        nc, npr = len(self.core), self.n_periphery
        touching, cross, bound = nc * npr + npr * (npr - 1) // 2, nc * npr, self.bound()
        skips = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xE2, 0)))
        thin = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xE2, 1)))
        chunks, last = [_sample_pairs(self.core, self.c_core, seed)], -1
        # with each skip clipped, a chunk's hits stay below size * (touching + 1)
        cap = min(_SKIP_CHUNK, (2**63 - 1) // (touching + 1))
        while bound > 0 and last < touching - 1:
            left = touching - last  # a skip this long lands one past the last pair
            expected = (left - 1) * bound
            size = min(left - 1, int(expected + 4.0 * np.sqrt(expected)) + 16, cap)
            hits = last + np.cumsum(np.minimum(skips.geometric(bound, size), left))
            last = int(hits[-1])
            hits = hits[hits < touching]
            i, j = _triangle_pairs(npr, hits[hits >= cross] - cross)
            hits = hits[hits < cross]
            pairs = np.concatenate([np.column_stack([hits // npr, nc + hits % npr]),
                                    np.column_stack([nc + i, nc + j])])
            p = self.touching_p(pairs[:, 0], pairs[:, 1])
            chunks.append(pairs[thin.random(p.size) < p / bound])
        pairs = np.concatenate(chunks)
        del chunks  # the draws go before from_pairs makes its copies
        return SparseGraph.from_pairs(self.n, pairs)

    def dense(self) -> np.ndarray:
        """The n x n matrix: `touching_p` of every pair, then the core block
        over the top-left corner and a zero diagonal."""
        nodes, nc = np.arange(self.n), len(self.core)
        p = self.touching_p(nodes[:, np.newaxis], nodes)
        self.core_block(out=p[:nc, :nc])
        np.fill_diagonal(p, 0.0)
        return p


@dataclass(frozen=True)
class ErAssembly(_Assembly):
    """An ER-type probability matrix kept as its parts:

        [[min(c_core C, 1), a J], [a J, a (J - I)]]

    with a the level of every pair that touches the periphery.  `dense`
    fills the n x n matrix; everything else reads the core block."""

    level: float  # a, already clipped to 1

    def bound(self) -> float:
        return self.level

    def touching_p(self, i, j) -> np.ndarray:
        return np.full(np.broadcast_shapes(i.shape, j.shape), self.level)


@dataclass(frozen=True)
class ConfigAssembly(_Assembly):
    """A configuration-type probability matrix kept as its parts: the
    scaled core block, and min(theta_i theta_j / norm, 1) on every pair
    that touches the periphery, with theta the scaled weights of all n
    nodes.  `dense` fills the n x n matrix; sampling never does."""

    theta: np.ndarray
    norm: float

    def bound(self) -> float:
        nc = len(self.core)
        top = np.sort(self.theta[nc:])[-2:]  # the two largest periphery weights
        if top.size == 0:
            return 1.0  # no touching pairs
        # the largest product pairs the top periphery weight with the top
        # core weight or with the second periphery weight
        product = max(self.theta[:nc].max(), top[0] if top.size == 2 else 0.0) * top[-1]
        return min(product / self.norm, 1.0)

    def touching_p(self, i, j) -> np.ndarray:
        p = self.theta[i] * self.theta[j]  # one array of the broadcast shape, then in place
        p /= self.norm
        return np.minimum(p, 1.0, out=p)


def _core_block_stats(core: np.ndarray, c_core: float) -> tuple[int, float]:
    """(entries above 1, sum after clipping at 1) of the scaled core block
    c_core C, a block of rows at a time, so no second n_c x n_c array is made."""
    above, total, step = 0, 0.0, max(1, _ROW_BLOCK // len(core))
    for lo in range(0, len(core), step):
        rows = np.multiply(core[lo:lo + step], c_core)
        above += int(np.count_nonzero(rows > 1.0))
        total += float(np.minimum(rows, 1.0, out=rows).sum())
    return above, total


def _touching_stats(theta: np.ndarray, n_core: int, norm: float) -> tuple[int, float]:
    """(entries above 1, sum after clipping at 1) of the entries
    theta_i theta_j / norm of the n x n matrix, diagonal excluded, that
    touch the periphery (nodes n_core on), in O(n log n).

    Row i's entries above 1 are those of its largest periphery weights.
    Bisection over the sorted periphery weights finds where they start with
    the same floating expression as ConfigAssembly.touching_p, which is monotone
    in the weight, so the count equals the dense count exactly."""
    peri = np.sort(theta[n_core:])
    npr = peri.size
    lo, hi = np.zeros(theta.size, dtype=np.int64), np.full(theta.size, npr)
    for _ in range(npr.bit_length()):  # each step at least halves hi - lo
        mid = (lo + hi) // 2
        above = theta * peri[np.minimum(mid, npr - 1)] / norm > 1.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, np.minimum(mid + 1, hi))
    # row i over the periphery columns: lo entries below 1, then npr - lo at 1
    rows_above = npr - lo
    row_sums = theta * np.concatenate([[0.0], np.cumsum(peri)])[lo] / norm + rows_above
    diag = theta[n_core:] * theta[n_core:] / norm  # periphery rows' own entries
    # the core-periphery block appears twice, the periphery block once
    above = 2 * int(rows_above[:n_core].sum()) + int(rows_above[n_core:].sum())
    total = 2.0 * float(row_sums[:n_core].sum()) + float(row_sums[n_core:].sum())
    return (above - int(np.count_nonzero(diag > 1.0)),
            total - float(np.minimum(diag, 1.0).sum()))


def _checked_clip_count(entries_above_one: int, n: int) -> int:
    """Clipped pairs of a symmetric n x n matrix; fail past 20% of pairs."""
    clip_count = entries_above_one // 2
    if clip_count > 0.2 * ((n * n - n) // 2):
        raise InfeasibleError(
            f"rescale would clip {clip_count} pairs (> 20% of all pairs)"
        )
    return clip_count


def _scale_er(core_p: np.ndarray, level: float, cfg: SynthConfig):
    """ER-type assembly that meets the density and degree ratio, from the
    core block alone: (ErAssembly, c_periphery, clip count, realized
    density).

    The core block is scaled by c_core and the constant periphery level a
    by c_periphery, so an unclipped instance meets Definition 1 exactly.
    The block masses are w_cc = sum(core block), w_cp = a n_core n_periphery
    and w_pp = a n_periphery (n_periphery - 1).  With R' = degree_ratio *
    n_core / n_periphery, the degree ratio fixes k = c_core / c_periphery
    = (R' (w_cp + w_pp) - w_cp) / w_cc, and the density fixes
    c_periphery = target / (k w_cc + 2 w_cp + w_pp), where target is the
    required sum of off-diagonal entries.  Without a periphery only c_core
    is free, and c_periphery is 1.  The clipped pairs are those of the
    scaled core block, plus every pair touching the periphery when the
    scaled level is above 1.
    """
    nc, npr, n = cfg.n_core, cfg.n_periphery, cfg.n
    target_sum = cfg.target_density * (n * n - n)
    w_cc = float(core_p.sum())
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
    touch, touching = c_peri * level, (n * n - n) - (nc * nc - nc)  # entries off the core block
    above, core_sum = _core_block_stats(core_p, float(c_core))
    if touch > 1.0:
        above += touching
    return (ErAssembly(core_p, float(c_core), npr, min(touch, 1.0)), float(c_peri),
            _checked_clip_count(above, n), (core_sum + min(touch, 1.0) * touching) / (n * n - n))


def _scale_config(core_p: np.ndarray, theta_peri: np.ndarray, cfg: SynthConfig):
    """Configuration-type assembly that meets the density and degree ratio
    while staying inside Definition 2: (ConfigAssembly, c_periphery, clip
    count, realized density), clipped to [0, 1].

    The core block and core weights are scaled by a, the periphery weights
    by b = beta * a, and the matrix is assembled from the scaled weights, so
    the expected degrees stay proportional to theta.  With S0 the core-block
    total, U = sum(u) and Q = sum(u^2) over the drawn periphery weights u and
    R' = degree_ratio * n_core / n_periphery, the degree ratio fixes beta as
    the positive root of

        R' (U^2 - Q) / S0 * beta^2 + (R' - 1) U beta - S0 = 0,

    and the density fixes a = target / (S0 + 2 beta U + beta^2 (U^2 - Q) / S0),
    where target is the required sum of off-diagonal entries.  c_core is a
    and c_periphery is b.  A pair touching the periphery then has
    probability theta_i theta_j / (a S0) for the scaled weights theta; the
    clips and the density are counted without the n x n matrix.
    """
    nc, npr, n = cfg.n_core, cfg.n_periphery, cfg.n
    theta_core = core_p.sum(axis=1)
    s0 = float(theta_core.sum())
    if s0 <= 0.0:
        raise DomainError("core block has zero total weight")
    target_sum = cfg.target_density * (n * n - n)
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
    assembly = ConfigAssembly(core_p, float(a), npr, theta, float(a * s0))
    core_above, core_sum = _core_block_stats(core_p, assembly.c_core)
    touch_above, touch_sum = _touching_stats(theta, nc, assembly.norm)
    return (assembly, float(a * beta), _checked_clip_count(core_above + touch_above, n),
            (core_sum + touch_sum) / (n * n - n))


@dataclass(frozen=True)
class GeneratedInstance:
    """A fully assembled design point ready for sampling.

    `assembly` is the probability matrix kept as its parts, and its one
    description: an ErAssembly or a ConfigAssembly, core first.  `sample`
    draws the instance's adjacency without the n x n matrix;
    `assembly.dense()` fills that matrix for tests and dense oracles."""

    assembly: ErAssembly | ConfigAssembly
    meta: dict = field(default_factory=dict)

    @property
    def truth(self) -> np.ndarray:
        """bool, True = core: the assembly puts its core first."""
        return np.arange(self.assembly.n) < len(self.assembly.core)

    def sample(self) -> SparseGraph:
        """The adjacency drawn from meta["adjacency_seed"]."""
        return self.assembly.sample(self.meta["adjacency_seed"])


def generate_instance(cfg: SynthConfig) -> GeneratedInstance:
    """Build the ground-truth probability matrix for one design point.

    Sub-seeds for the latent positions, the periphery weights, and the
    adjacency sampling are derived from cfg.seed and echoed in the
    metadata so every artifact can be rebuilt from the meta record alone.

    ER-type: the core block is scaled by c_core and the periphery level by
    c_periphery, both solved in closed form from the block masses (see
    _scale_er), so an unclipped instance meets Definition 1 exactly; the
    level that c_periphery scales is the core block's off-diagonal mean.
    Configuration-type: the core weights are scaled by c_core and the
    periphery weights by c_periphery before assembly (see _scale_config),
    so an unclipped instance meets Definition 2 exactly.  The periphery
    weights are drawn on the sample_periphery_theta range and then scaled
    by c_periphery / c_core relative to the core weights; that factor is
    set by the degree ratio, so the final periphery weights are not
    confined to (0.5 min, 1.5 max) of the final core weights.  Either way
    the n x n matrix is filled only by `assembly.dense()`, never by
    `sample`.
    """
    root = np.random.SeedSequence(cfg.seed)
    latents_seed, theta_seed, adjacency_seed = (
        int(s) for s in root.generate_state(3)
    )
    core = graphon_core(cfg.graphon, cfg.n_core, latents_seed)
    meta = {
        **design_record(cfg),
        "latents_seed": latents_seed,
        "theta_seed": theta_seed,
        "adjacency_seed": adjacency_seed,
    }
    if cfg.periphery == "er":
        meta["er_level"] = level = float(core.sum() / (core.size - len(core)))
        assembly, *scales = _scale_er(core, level, cfg)
    else:
        theta_peri = sample_periphery_theta(core, cfg.n_periphery, theta_seed)
        assembly, *scales = _scale_config(core, theta_peri, cfg)
        meta["theta_core_sum"] = float(core.sum(axis=1).sum())
    meta["c_core"] = assembly.c_core
    meta["c_periphery"], meta["rescale_clip_count"], meta["realized_density"] = scales
    return GeneratedInstance(assembly=assembly, meta=meta)
