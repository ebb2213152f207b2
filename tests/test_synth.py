import hashlib
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (definition1_residual, definition2_residual, dense_config, dense_er,
                      periphery_product_residual, run_bounded)
from corex.errors import DomainError, InfeasibleError, ValidationError
from corex import synth
from corex.graph import sample_adjacency
from corex.spectral import scores_from_truth
from corex.synth import (DESIGN_FIELDS, PRESET_SIZES, ConfigAssembly, ErAssembly, SynthConfig,
                         design_record, generate_instance, graphon_by_number,
                         graphon_core, graphon_matrix, graphon_value, read_design,
                         sample_latents, sample_periphery_theta)

G1 = graphon_by_number(1)
G2 = graphon_by_number(2)
G3 = graphon_by_number(3)


def assert_probability_matrix(p, *blocks):
    """What synth keeps by construction and does not check at run time: p
    equals its transpose bit for bit and has a zero diagonal, and every entry
    of p and of each block lies in [0, 1] (a NaN fails)."""
    assert np.array_equal(p, p.T)
    assert not np.diag(p).any()
    for a in (p, *blocks):
        assert ((0.0 <= a) & (a <= 1.0)).all()


class TestGraphonValues:
    def test_g1_same_block(self):
        assert graphon_value(G1, 0.1, 0.1) == pytest.approx(1 / 7, rel=1e-15)

    def test_g1_cross_block(self):
        assert graphon_value(G1, 0.1, 0.9) == pytest.approx(0.3 / 7, rel=1e-15)

    def test_g1_block_ladder(self):
        for k in range(1, 7):
            mid = (k - 0.5) / 6
            assert graphon_value(G1, mid, mid) == pytest.approx(k / 7, rel=1e-15)

    def test_g1_boundary_is_background(self):
        # open blocks: exact boundaries fall back to the off-block value
        assert graphon_value(G1, 1 / 6, 1 / 6) == pytest.approx(0.3 / 7, rel=1e-15)

    def test_g2_center(self):
        # frozen: sin(1)/2 + 0.5 evaluated at 40 digits
        assert graphon_value(G2, 0.5, 0.5) == pytest.approx(
            0.9207354924039483, rel=1e-14)

    def test_g3_diagonal(self):
        # frozen: 1 / (1 + exp(-0.1))
        for mu in (0.0, 0.3, 0.8):
            assert graphon_value(G3, mu, mu) == pytest.approx(
                0.5249791874789399, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for spec in (G1, G2, G3):
            mu, nu = rng.random(50), rng.random(50)
            assert np.array_equal(graphon_value(spec, mu, nu),
                                  graphon_value(spec, nu, mu))

    def test_range(self):
        rng = np.random.default_rng(1)
        for spec in (G1, G2, G3):
            vals = graphon_value(spec, rng.random(200), rng.random(200))
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            graphon_value(G1, -0.1, 0.5)
        with pytest.raises(DomainError):
            graphon_value(G2, 0.5, 1.5)

    @pytest.mark.parametrize("kind", ["custom", "TABLE1_G1", 1, None])
    def test_unknown_kind_rejected(self, kind):
        # a graphon is one of the three built-in kinds, named by its string
        with pytest.raises(DomainError, match="graphon kind"):
            graphon_value(kind, 0.5, 0.5)
        with pytest.raises(DomainError, match="graphon kind"):
            graphon_matrix(kind, np.empty(0))
        with pytest.raises(DomainError, match="graphon kind"):
            graphon_core(kind, 5, seed=0)

    def test_graphon_by_number_names_the_kind(self):
        assert [graphon_by_number(k) for k in (1, 2, 3)] == ["table1_g1", "table1_g2",
                                                             "table1_g3"]

    @pytest.mark.parametrize("spec", [G1, G2, G3], ids=["g1", "g2", "g3"])
    def test_nan_latent_rejected(self, spec):
        # a NaN fails every comparison, so a check written as "outside [0, 1]"
        # let it through: g1 then read it as off-block, g2 and g3 returned NaN
        for mu, nu in ((math.nan, 0.5), (0.5, math.nan), ([0.2, math.nan], 0.3)):
            with pytest.raises(DomainError):
                graphon_value(spec, mu, nu)
        with pytest.raises(DomainError):
            graphon_matrix(spec, np.array([0.1, math.nan, 0.7]))


class TestGraphonCore:
    def test_g1_blockwise_against_direct_construction(self):
        seed = 13
        n = 40
        xi = sample_latents(n, seed)
        p = graphon_core(G1, n, seed)
        # independent oracle: explicit block membership loop
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                ki = math.floor(xi[i] * 6)
                kj = math.floor(xi[j] * 6)
                same = ki == kj and xi[i] * 6 != ki and xi[j] * 6 != kj
                expected[i, j] = (ki + 1) / 7 if same else 0.3 / 7
        assert np.array_equal(p, expected)

    def test_deterministic(self):
        a = graphon_core(G2, 25, seed=5)
        b = graphon_core(G2, 25, seed=5)
        assert np.array_equal(a, b)

    def test_exact_symmetry(self):
        for spec in (G1, G2, G3):
            p = graphon_core(spec, 30, seed=3)
            assert np.array_equal(p, p.T)

    @pytest.mark.parametrize("spec", [G1, G2, G3], ids=["g1", "g2", "g3"])
    def test_peak_memory_near_one_block(self, spec):
        # evaluating the graphon on the whole square at once, then copying the
        # result, peaked at 2.0-2.1 x the block's 8 n^2 bytes
        tracemalloc.start()
        try:
            graphon_core(spec, 1000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 1000 ** 2

    def test_row_blocks_match_one_evaluation(self):
        # n = 300 spans two row blocks of graphon_matrix
        xi = sample_latents(300, 8)
        for spec in (G1, G2, G3):
            whole = np.array(graphon_value(spec, xi[:, np.newaxis], xi[np.newaxis, :]))
            np.fill_diagonal(whole, 0.0)
            assert np.array_equal(graphon_matrix(spec, xi), whole)

    @settings(max_examples=60)
    @given(gnum=st.integers(1, 3),
           xi=st.lists(st.floats(0.0, 1.0) | st.sampled_from([k / 6 for k in range(7)]),
                       min_size=1, max_size=40))
    def test_fill_is_a_probability_matrix(self, gnum, xi):
        # latents on graphon 1's block edges included
        assert_probability_matrix(graphon_matrix(graphon_by_number(gnum), np.array(xi)))


def small_core(p=0.5, n=4):
    entries = np.full((n, n), p)
    np.fill_diagonal(entries, 0.0)
    return entries


def er_dense(core, n_periphery, level):
    """ErAssembly.dense of an unscaled core."""
    return ErAssembly(core, 1.0, n_periphery, level).dense()


class TestAssembleEr:
    def test_explicit_three_by_three(self):
        core = small_core(p=0.5, n=2)
        p = er_dense(core, 1, 0.1)
        assert np.array_equal(p[2], [0.1, 0.1, 0.0])
        assert p[0, 1] == 0.5

    def test_definition1_membership_exact(self):
        core = graphon_core(G1, 20, seed=1)
        p = er_dense(core, 15, 0.07)
        periphery = np.zeros(35, dtype=bool)
        periphery[20:] = True
        assert definition1_residual(p, periphery) == 0.0

    def test_truth_scores_constant(self):
        core = graphon_core(G2, 12, seed=2)
        level = 0.05
        p = er_dense(core, 10, level)
        n = len(p)
        values = scores_from_truth(p, "er").values
        expected = level * np.sqrt((n - 1) / n)
        assert np.allclose(values[12:], expected, rtol=1e-12)


def er_instance(graphon, n_core, n_periphery, ratio, density, seed=0):
    cfg = SynthConfig(graphon=graphon, n_core=n_core, n_periphery=n_periphery, periphery="er",
                      degree_ratio=ratio, target_density=density, seed=seed)
    return generate_instance(cfg)


def er_peak_in_dense_matrices(n_core, n_periphery):
    """tracemalloc peak of an ER generate_instance, in units of one n x n
    float64 matrix."""
    tracemalloc.start()
    try:
        er_instance(G1, n_core, n_periphery, ratio=3.0, density=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * (n_core + n_periphery) ** 2)


def dense_rescale_oracle(graphon, cfg, meta):
    """The dense ER scaling that generate_instance replaced: assemble the
    n x n matrix, take its block sums, solve the 2 x 2 system for the two
    constants, scale a copy and clip it.  Returns (c_core, c_periphery,
    scaled matrix, clip count), or None when the system has no feasible
    solution."""
    nc, npr, n = cfg.n_core, cfg.n_periphery, cfg.n
    core = synth.graphon_core(graphon, nc, meta["latents_seed"])  # patched by constant_core
    dense = dense_er(core, npr, meta["er_level"])
    w_cc = dense[:nc, :nc].sum()
    w_cp = dense[:nc, nc:].sum()
    w_pp = dense[nc:, nc:].sum()
    target = cfg.target_density * (n * n - n)
    if npr == 0:
        c_core, c_peri = target / w_cc, 1.0
    else:
        k = (cfg.degree_ratio * (nc / npr) * (w_cp + w_pp) - w_cp) / w_cc
        if k <= 0.0:
            return None
        c_peri = target / (k * w_cc + 2.0 * w_cp + w_pp)
        c_core = k * c_peri
    scaled = dense.copy()
    scaled[:nc, :nc] *= c_core
    scaled[:nc, nc:] *= c_peri
    scaled[nc:, :] *= c_peri
    clip_count = int(np.count_nonzero(scaled > 1.0) // 2)
    if clip_count > 0.2 * ((n * n - n) // 2):
        return None
    return c_core, c_peri, np.minimum(scaled, 1.0), clip_count


def edge_set(g):
    return set(map(tuple, g.edge_array().tolist()))


class TestErSample:
    """ErAssembly.sample: the core block as sample_adjacency samples it, the
    pairs touching the periphery by geometric skipping."""

    def test_core_edges_match_sample_adjacency(self):
        inst = er_instance(G1, 40, 60, ratio=3.0, density=0.1, seed=2)
        nc, seed = 40, inst.meta["adjacency_seed"]
        core = {e for e in edge_set(inst.sample()) if e[1] < nc}
        assert core == edge_set(sample_adjacency(inst.assembly.core_block(), seed))

    def test_touching_pairs_are_iid_bernoulli(self):
        # n_c = 4, n_p = 5: 20 core-periphery pairs and 10 periphery pairs
        nc, npr, level, runs = 4, 5, 0.3, 2000
        assembly = ErAssembly(small_core(p=0.5, n=nc), 1.0, npr, level)
        touching = [(i, j) for i in range(nc + npr) for j in range(max(i + 1, nc), nc + npr)]
        hits = np.zeros((runs, len(touching)), dtype=bool)
        for seed in range(runs):
            edges = edge_set(assembly.sample(seed))
            hits[seed] = [pair in edges for pair in touching]
        sigma = math.sqrt(level * (1 - level) / runs)
        assert np.abs(hits.mean(axis=0) - level).max() <= 5 * sigma
        # the touching-edge count is Binomial(30, a), whose fourth central
        # moment is N a (1 - a) (1 + 3 (N - 2) a (1 - a))
        counts, n_pairs = hits.sum(axis=1), len(touching)
        mean, var = n_pairs * level, n_pairs * level * (1 - level)
        mu4 = var * (1 + 3 * (n_pairs - 2) * level * (1 - level))
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / runs)
        assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var ** 2) / runs)

    @pytest.mark.parametrize("npr", [0, 1, 5])
    def test_level_one_joins_every_touching_pair(self, npr):
        core = graphon_core(G2, 6, seed=1)
        g = ErAssembly(core, 1.0, npr, 1.0).sample(3)
        n = 6 + npr
        expected = {(i, j) for i in range(n) for j in range(max(i + 1, 6), n)}
        expected |= edge_set(sample_adjacency(core, 3))
        assert g.n == n and edge_set(g) == expected

    @pytest.mark.parametrize("npr", [0, 1])
    def test_tiny_periphery(self, npr):
        core = graphon_core(G1, 8, seed=2)
        g = ErAssembly(core, 1.0, npr, 0.4).sample(5)
        assert g.n == 8 + npr
        assert {e for e in edge_set(g) if e[1] < 8} == edge_set(sample_adjacency(core, 5))
        if npr == 0:
            assert edge_set(g) == edge_set(sample_adjacency(core, 5))

    def test_deterministic_per_seed(self):
        assembly = ErAssembly(graphon_core(G3, 10, seed=0), 1.0, 30, 0.2)
        a, b, c = assembly.sample(9), assembly.sample(9), assembly.sample(10)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert edge_set(a) != edge_set(c)

    def test_peak_memory_far_below_dense(self):
        # filling the n x n matrix takes 8 n^2 bytes; the sampler needs O(m)
        inst = er_instance(G1, 200, 4000, ratio=3.0, density=0.02, seed=1)
        tracemalloc.start()
        try:
            inst.sample()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * 4200 ** 2


def config_instance(graphon, n_core, n_periphery, ratio, density, seed=0):
    cfg = SynthConfig(graphon=graphon, n_core=n_core, n_periphery=n_periphery, periphery="config",
                      degree_ratio=ratio, target_density=density, seed=seed)
    return generate_instance(cfg)


def same_graph(a, b):
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


class TestConfigSample:
    """ConfigAssembly.sample: the core block as sample_adjacency samples it,
    the pairs touching the periphery by skipping at the largest touching
    probability and thinning each candidate to its own."""

    def test_core_edges_match_sample_adjacency(self):
        inst = config_instance(G1, 40, 60, ratio=3.0, density=0.1, seed=2)
        core = {e for e in edge_set(inst.sample()) if e[1] < 40}
        block = inst.assembly.core_block()
        assert core == edge_set(sample_adjacency(block, inst.meta["adjacency_seed"]))

    @pytest.mark.parametrize("norm", [14.0, 10.0], ids=["bound-below-one", "clipped"])
    def test_touching_pairs_are_iid_bernoulli(self, norm):
        # n_c = 4, n_p = 5: 20 core-periphery pairs and 10 periphery pairs, of
        # probability min(theta_i theta_j / norm, 1); at norm 10 the pairs of
        # weights 4 x 3 and 4 x 2.5 clip at 1
        nc, npr, runs = 4, 5, 2000
        theta = np.array([1.0, 2.0, 3.0, 4.0, 0.5, 1.0, 1.5, 2.5, 3.0])
        assembly = ConfigAssembly(small_core(p=0.5, n=nc), 1.0, npr, theta, norm)
        touching = [(i, j) for i in range(nc + npr) for j in range(max(i + 1, nc), nc + npr)]
        p = np.array([min(theta[i] * theta[j] / norm, 1.0) for i, j in touching])
        hits = np.zeros((runs, len(touching)), dtype=bool)
        for seed in range(runs):
            edges = edge_set(assembly.sample(seed))
            hits[seed] = [pair in edges for pair in touching]
        assert hits[:, p == 1.0].all()
        free = p < 1.0
        sigma = np.sqrt(p * (1 - p) / runs)
        assert np.all(np.abs(hits.mean(axis=0) - p)[free] <= 5 * sigma[free])
        # per-pair chi-square over the unclipped pairs, df = their count
        chi2 = float(np.sum((hits.sum(axis=0) - runs * p)[free] ** 2
                            / (runs * p * (1 - p))[free]))
        df = int(free.sum())
        assert abs(chi2 - df) <= 5 * math.sqrt(2 * df)
        # the touching-edge count is Poisson-binomial: its variance is
        # sum p (1 - p), and its fourth central moment is
        # sum p (1 - p) (1 - 6 p (1 - p)) + 3 var^2
        counts = hits.sum(axis=1)
        var = float(np.sum(p * (1 - p)))
        mu4 = float(np.sum(p * (1 - p) * (1 - 6 * p * (1 - p)))) + 3 * var ** 2
        assert abs(counts.mean() - p.sum()) <= 5 * math.sqrt(var / runs)
        assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var ** 2) / runs)

    @pytest.mark.parametrize("periphery", ["er", "config"])
    @pytest.mark.parametrize("chunk", [1, 7, 10 ** 12])
    def test_independent_of_chunk_size(self, monkeypatch, periphery, chunk):
        # an unbounded chunk is the single draw of the ER sampler before thinning
        # came in, so ER touching edges keep that layout
        cfg = SynthConfig(graphon=G2, n_core=30, n_periphery=50, periphery=periphery,
                          degree_ratio=3.0, target_density=0.1, seed=6)
        inst = generate_instance(cfg)
        whole = inst.sample()
        monkeypatch.setattr("corex.synth._SKIP_CHUNK", chunk)
        assert same_graph(inst.sample(), whole)

    def test_deterministic_per_seed(self):
        assembly = config_instance(G3, 10, 30, ratio=2.0, density=0.2).assembly
        a, b, c = assembly.sample(9), assembly.sample(9), assembly.sample(10)
        assert same_graph(a, b) and edge_set(a) != edge_set(c)

    @pytest.mark.parametrize("npr", [0, 1, 2])
    def test_tiny_periphery(self, npr):
        inst = config_instance(G1, 8, npr, ratio=1.0, density=0.3, seed=1)
        g = inst.sample()
        block = inst.assembly.core_block()
        assert g.n == 8 + npr
        assert {e for e in edge_set(g) if e[1] < 8} == edge_set(
            sample_adjacency(block, inst.meta["adjacency_seed"]))

    def test_peak_memory_far_below_dense(self):
        # generating and sampling never build the 8 n^2-byte matrix
        tracemalloc.start()
        try:
            config_instance(G1, 200, 4000, ratio=3.0, density=0.02, seed=1).sample()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * 4200 ** 2


@pytest.mark.parametrize("periphery", ["er", "config"])
def test_sample_peak_memory_below_one_core_block(periphery):
    # the core pairs are drawn from the unscaled core a block of rows at a
    # time, so no scaled n_c x n_c copy (8 n_c^2 bytes) is made
    cfg = SynthConfig(graphon=G1, n_core=1500, n_periphery=500, periphery=periphery,
                      degree_ratio=3.0, target_density=0.02, seed=1)
    inst = generate_instance(cfg)
    tracemalloc.start()
    try:
        inst.sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * 1500 ** 2


@pytest.mark.parametrize("periphery", ["er", "config"])
def test_dense_peak_is_the_fill(periphery):
    # dense() allocates the n x n matrix and nothing of its size; a run-time
    # symmetry check (an n x n bool from a transposed compare) took it to
    # 1.134 x 8 n^2 here
    cfg = SynthConfig(graphon=G1, n_core=500, n_periphery=500, periphery=periphery,
                      degree_ratio=3.0, target_density=0.02, seed=1)
    assembly = generate_instance(cfg).assembly
    tracemalloc.start()
    try:
        assembly.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * 8 * 1000 ** 2


MAX_NODES_SAMPLE = textwrap.dedent("""
    import sys
    import numpy as np
    from corex import synth
    from corex.graph import MAX_NODES
    # hand back the pairs: a graph of MAX_NODES nodes would need 24 GB of indptr
    synth.SparseGraph.from_pairs = staticmethod(lambda n, pairs: pairs)
    assembly = synth.ErAssembly(core=np.zeros((2, 2)), c_core=0.0,
                                n_periphery=MAX_NODES - 2, level=float(sys.argv[1]))
    for seed in range(10):
        pairs = assembly.sample(seed)
        assert ((0 <= pairs) & (pairs < MAX_NODES)).all() and (pairs[:, 0] < pairs[:, 1]).all()
        assert len(np.unique(pairs, axis=0)) == len(pairs)
""")


@pytest.mark.parametrize("level", ["1e-19", "1e-17", "0.0"])
def test_touching_sampler_ends_at_max_nodes(level):
    """At n = MAX_NODES the touching pairs number about 2^62, and a skip at a
    level of 1e-19 is often 2^63 - 1: clipped skips keep the running sum in
    int64, so every draw ends with distinct pairs in range."""
    proc = run_bounded(["-c", MAX_NODES_SAMPLE, level])
    assert proc.returncode == 0, proc.stderr


# SHA-256 of edge_array().tobytes(): a change to either sampler's random
# streams, or to the order it visits pairs in, changes these; a deliberate
# change updates them
@pytest.mark.parametrize("make, digest", [
    (lambda constant_core: er_instance(G1, 60, 90, ratio=3.0, density=0.1, seed=3),
     "613ef134d0ff1ec0bc232fb334250889a96ea8c4c1ed3c9261a041e915176925"),
    # level clipped to 1, as in test_clipped_level_clips_every_touching_pair
    (lambda constant_core: er_instance(constant_core(0.5), 20, 2, ratio=0.3, density=0.5),
     "684ebda64ab16e9a14b702e80c81af62a11fc3facaa0f1942f9eb8a52fdde4e2"),
    (lambda constant_core: config_instance(G1, 60, 90, ratio=3.0, density=0.1, seed=3),
     "038bef71cebbfedd1dd9735db9eaa7c149850881037c05cc0db190038e4aa192"),
], ids=["er", "er-level-clipped", "config"])
def test_sampled_graph_is_pinned(make, digest, constant_core):
    edges = make(constant_core).sample().edge_array()
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


# SHA-256 of graphon_matrix(graphon k, sample_latents(301, 7)).tobytes(): the
# fill itself, over two of its row blocks, pinned apart from any sampler
@pytest.mark.parametrize("spec, digest", [
    (G1, "499409aac3dd0a2a580176ce02b95925b902f69da9b50709fcb53c5a8be8d6b3"),
    (G2, "fc858738f5a64d215460663e0e542db499ecd43e3d56413550f5948a5799c648"),
    (G3, "f922df7bdf4e4aa6d97a239d63e87e8a1f8f531897927706d901abb8a56b564c"),
], ids=["g1", "g2", "g3"])
def test_graphon_fill_is_pinned(spec, digest):
    p = graphon_matrix(spec, sample_latents(301, 7))
    assert hashlib.sha256(p.tobytes()).hexdigest() == digest


class TestAssembleConfig:
    """Configuration-type assembly, reached through generate_instance."""

    def test_theta_deterministic(self):
        core = graphon_core(G3, 15, seed=6)
        t1 = sample_periphery_theta(core, 10, seed=21)
        t2 = sample_periphery_theta(core, 10, seed=21)
        assert np.array_equal(t1, t2)

    def test_zero_core_rejected(self, constant_core):
        cfg = SynthConfig(graphon=constant_core(0.0), n_core=4, n_periphery=3, periphery="config",
                          degree_ratio=1.0, target_density=0.05, seed=0)
        with pytest.raises(DomainError):
            generate_instance(cfg)

    @settings(max_examples=80)
    @given(gnum=st.integers(1, 3), n_core=st.integers(2, 30),
           n_periphery=st.integers(0, 30), ratio=st.floats(0.1, 20.0),
           density=st.floats(0.005, 0.6), seed=st.integers(0, 2 ** 32 - 1))
    def test_parts_match_dense_oracle(self, gnum, n_core, n_periphery, ratio, density, seed):
        # dense() and the clip count are bit for bit those of the dense
        # assembly; the density is counted in another order
        graphon = graphon_by_number(gnum)
        cfg = SynthConfig(graphon=graphon, n_core=n_core, n_periphery=n_periphery,
                          periphery="config", degree_ratio=ratio, target_density=density,
                          seed=seed)
        latents_seed, theta_seed, _ = (int(w) for w in
                                       np.random.SeedSequence(seed).generate_state(3))
        core = graphon_core(graphon, n_core, latents_seed)
        theta_peri = sample_periphery_theta(core, n_periphery, theta_seed)
        try:
            entries, c_core, c_peri, clip_count = dense_config(core, theta_peri, cfg)
        except (DomainError, InfeasibleError) as exc:
            with pytest.raises(type(exc)):
                generate_instance(cfg)
            return
        inst = generate_instance(cfg)
        dense = inst.assembly.dense()
        assert np.array_equal(dense, entries)
        assert_probability_matrix(dense, inst.assembly.core_block())
        assert inst.meta["rescale_clip_count"] == clip_count
        assert (inst.meta["c_core"], inst.meta["c_periphery"]) == (c_core, c_peri)
        n = cfg.n
        assert inst.meta["realized_density"] == pytest.approx(entries.sum() / (n * n - n),
                                                              rel=1e-12)

    @pytest.mark.parametrize("n_core, n_periphery, ratio, density, clip_count", [
        (30, 40, 2.0, 0.1, 43), (600, 800, 3.0, 0.2, 24664), (20, 3, 0.4, 0.5, 49),
        (10, 30, 0.3, 0.3, 34),
    ], ids=["core", "core-row-blocks", "core-and-touching", "touching"])
    def test_clip_count_matches_dense_oracle(self, n_core, n_periphery, ratio, density,
                                             clip_count):
        # clips in the core block only (over several of its row blocks), in
        # both parts, and off the core block only, where periphery rows whose
        # own diagonal entry would exceed 1 must not count it
        cfg = SynthConfig(graphon=G1, n_core=n_core, n_periphery=n_periphery, periphery="config",
                          degree_ratio=ratio, target_density=density, seed=4)
        inst = generate_instance(cfg)
        core = graphon_core(G1, n_core, inst.meta["latents_seed"])
        theta_peri = sample_periphery_theta(core, n_periphery, inst.meta["theta_seed"])
        entries, *_, oracle_count = dense_config(core, theta_peri, cfg)
        assert inst.meta["rescale_clip_count"] == oracle_count == clip_count
        assert np.array_equal(inst.assembly.dense(), entries)


class TestRescale:
    """ER-type scaling by two constants, reached through generate_instance."""

    def test_identity_when_already_on_target(self, constant_core):
        # a constant 0.25 core and level: density 0.25 and ratio 1 already hold
        inst = er_instance(constant_core(0.25), 10, 10, ratio=1.0, density=0.25)
        assert abs(inst.meta["c_core"] - 1.0) < 1e-9
        assert abs(inst.meta["c_periphery"] - 1.0) < 1e-9

    def test_hits_target_density(self):
        inst = er_instance(G1, 30, 30, ratio=2.0, density=0.02, seed=3)
        assert inst.meta["rescale_clip_count"] == 0
        assert abs(inst.assembly.dense().sum() / (60 * 59) - 0.02) < 1e-9

    def test_hits_degree_ratio(self):
        inst = er_instance(G2, 40, 60, ratio=3.0, density=0.03, seed=8)
        deg = inst.assembly.dense().sum(axis=1)
        ratio = deg[:40].mean() / deg[40:].mean()
        assert abs(ratio - 3.0) < 1e-6

    def test_preserves_er_membership(self):
        inst = er_instance(G1, 25, 25, ratio=2.5, density=0.05, seed=5)
        assert inst.meta["rescale_clip_count"] == 0
        assert definition1_residual(inst.assembly.dense(), ~inst.truth) == 0.0

    def test_infeasible_ratio(self):
        with pytest.raises(InfeasibleError):
            er_instance(G1, 10, 40, ratio=0.05, density=0.02, seed=2)

    def test_heavy_clipping_rejected(self, constant_core):
        # ratio 3 at density 0.95 pushes every core pair of a constant core
        # past 1, and core pairs are 190 of the 276 pairs
        with pytest.raises(InfeasibleError, match="20%"):
            er_instance(constant_core(0.5), 20, 4, ratio=3.0, density=0.95)

    def test_zero_core_rejected(self, constant_core):
        with pytest.raises(InfeasibleError):
            er_instance(constant_core(0.0), 5, 5, ratio=1.0, density=0.05)

    @settings(max_examples=60)
    @given(gnum=st.integers(1, 3), n_core=st.integers(2, 30),
           n_periphery=st.integers(0, 30),
           ratio=st.floats(1.0, 6.0), density=st.floats(0.005, 0.3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_matches_dense_oracle(self, gnum, n_core, n_periphery, ratio,
                                              density, seed):
        graphon = graphon_by_number(gnum)
        cfg = SynthConfig(graphon=graphon, n_core=n_core, n_periphery=n_periphery, periphery="er",
                          degree_ratio=ratio, target_density=density, seed=seed)
        try:
            inst = generate_instance(cfg)
        except InfeasibleError:
            core_seed = int(np.random.SeedSequence(seed).generate_state(3)[0])
            core = graphon_core(graphon, n_core, core_seed)
            # the core's off-diagonal mean, as generate_instance takes it
            er_level = float(core.sum() / (core.size - n_core))
            meta = {"latents_seed": core_seed, "er_level": er_level}
            assert dense_rescale_oracle(graphon, cfg, meta) is None
            return
        oracle = dense_rescale_oracle(graphon, cfg, inst.meta)
        assert oracle is not None
        c_core, c_peri, scaled, clip_count = oracle
        assert inst.meta["rescale_clip_count"] == clip_count
        assert inst.meta["c_core"] == pytest.approx(c_core, rel=1e-12)
        assert inst.meta["c_periphery"] == pytest.approx(c_peri, rel=1e-12)
        dense = inst.assembly.dense()
        np.testing.assert_allclose(dense, scaled, rtol=1e-12, atol=0.0)
        assert_probability_matrix(dense, inst.assembly.core_block())

    def test_peak_memory_one_dense_matrix(self):
        # the closed form allocates the n x n matrix once; the dense path
        # assembled it and then scaled a copy, about 2.4 x 8 n^2 at this size
        assert er_peak_in_dense_matrices(1000, 1000) < 1.5

    def test_peak_memory_no_square_clip_mask(self):
        # counting clips over the whole matrix at once took an n x n boolean
        # (1.375 x 8 n^2 here); a block of rows at a time leaves about 1.31 x
        assert er_peak_in_dense_matrices(1000, 1000) < 1.35

    def test_peak_memory_one_core_block(self):
        # the clip count and the density each scaled a copy of the whole core
        # block, 2.2 x its 8 n_c^2 bytes; a block of rows at a time leaves one
        tracemalloc.start()
        try:
            er_instance(G1, 1000, 2000, ratio=3.0, density=0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * 1000 ** 2

    def test_clipped_level_clips_every_touching_pair(self, constant_core):
        # a small periphery that must out-degree the core pushes c_periphery a
        # above 1: all 20 * 2 + 1 pairs touching the periphery clip
        graphon = constant_core(0.5)
        cfg = SynthConfig(graphon=graphon, n_core=20, n_periphery=2, periphery="er",
                          degree_ratio=0.3, target_density=0.5, seed=0)
        inst = generate_instance(cfg)
        c_core, c_peri, scaled, clip_count = dense_rescale_oracle(graphon, cfg, inst.meta)
        assert c_peri * 0.5 > 1.0 and inst.assembly.level == 1.0
        assert inst.meta["rescale_clip_count"] == clip_count == 41
        assert np.array_equal(inst.assembly.dense(), scaled)
        assert abs(inst.meta["realized_density"] - scaled.sum() / (22 * 21)) <= 1e-15

    def test_clip_count_over_row_blocks(self):
        # n = 1400 spans two row blocks of the clip count
        cfg = SynthConfig(graphon=G2, n_core=600, n_periphery=800, periphery="er",
                          degree_ratio=3.0, target_density=0.2, seed=1)
        inst = generate_instance(cfg)
        c_core, c_peri, scaled, clip_count = dense_rescale_oracle(G2, cfg, inst.meta)
        assert inst.meta["rescale_clip_count"] == clip_count == 49935
        np.testing.assert_allclose(inst.assembly.dense(), scaled, rtol=1e-12, atol=0.0)


VALID_DESIGN = dict(graphon=G1, n_core=20, n_periphery=30, periphery="er", degree_ratio=2.0,
                    target_density=0.05, seed=11)


class TestDesignPoint:
    @pytest.mark.parametrize("field, value", [
        ("n_core", 1), ("n_core", True), ("n_core", 20.0), ("n_core", "20"),
        ("n_periphery", -1), ("n_periphery", None), ("seed", -1), ("seed", 1.5),
        ("seed", False), ("periphery", "dense"), ("degree_ratio", math.nan),
        ("degree_ratio", math.inf), ("degree_ratio", 0.0), ("degree_ratio", "3"),
        ("degree_ratio", True), ("target_density", 0.0), ("target_density", 1.0),
        ("target_density", math.nan), ("target_density", "0.05"), ("graphon", "custom"),
        ("graphon", 1), ("graphon", ["table1_g1"]),
    ])
    def test_config_rejects_bad_field(self, field, value):
        with pytest.raises(DomainError):
            SynthConfig(**{**VALID_DESIGN, field: value})

    def test_config_accepts_numpy_numbers(self):
        cfg = SynthConfig(**{**VALID_DESIGN, "n_core": np.int64(20),
                             "degree_ratio": np.float64(2.0)})
        assert cfg.n == 50

    def test_meta_head_is_the_design_record(self):
        cfg = SynthConfig(**VALID_DESIGN)
        meta = generate_instance(cfg).meta
        head = design_record(cfg)
        assert list(head) == list(DESIGN_FIELDS)
        assert list(meta.items())[:len(head)] == list(head.items())

    @pytest.mark.parametrize("er_level", [None, 0.03])
    def test_read_design_inverts_the_record(self, er_level):
        cfg = SynthConfig(**{**VALID_DESIGN, "graphon": G2})
        record = {**design_record(cfg), "latents_seed": 5, "er_level": er_level}
        assert read_design(record) == cfg

    def test_read_design_names_missing_fields(self):
        record = design_record(SynthConfig(**VALID_DESIGN))
        del record["seed"], record["periphery"]
        with pytest.raises(ValidationError, match=r"\['periphery', 'seed'\]"):
            read_design(record)

    @pytest.mark.parametrize("field, value", [("graphon", ["table1_g1"]),
                                              ("graphon", "custom"), ("n_core", "abc")])
    def test_read_design_rejects_bad_type(self, field, value):
        record = {**design_record(SynthConfig(**VALID_DESIGN)), field: value}
        with pytest.raises(DomainError):
            read_design(record)


class TestGenerateInstance:
    def test_meta_echo_and_determinism(self):
        cfg = SynthConfig(graphon=G1, n_core=20, n_periphery=30, periphery="er",
                          degree_ratio=2.0, target_density=0.05, seed=11)
        a = generate_instance(cfg)
        b = generate_instance(cfg)
        assert np.array_equal(a.assembly.dense(), b.assembly.dense())
        assert a.meta == b.meta
        assert a.truth.sum() == 20
        assert abs(a.meta["realized_density"] - 0.05) < 1e-9

    def test_config_instance_membership(self):
        cfg = SynthConfig(graphon=G2, n_core=25, n_periphery=25, periphery="config",
                          degree_ratio=1.0, target_density=0.05, seed=3)
        inst = generate_instance(cfg)
        periphery = ~inst.truth
        # the product form alone is necessary, not sufficient: Definition 2
        # also ties the weights to the expected degrees
        p = inst.assembly.dense()
        assert periphery_product_residual(p, periphery) <= 1e-10
        assert definition2_residual(p, periphery) <= 1e-10

    @pytest.mark.parametrize("ratio", [1.0, 3.0])
    def test_config_instance_hits_targets_inside_definition2(self, ratio):
        cfg = SynthConfig(graphon=G1, n_core=1000, n_periphery=1000, periphery="config",
                          degree_ratio=ratio, target_density=0.02, seed=0)
        inst = generate_instance(cfg)
        assert inst.meta["rescale_clip_count"] == 0
        p = inst.assembly.dense()
        assert definition2_residual(p, ~inst.truth) <= 1e-10
        assert abs(p.sum() / (2000 * 1999) - 0.02) <= 1e-9
        deg = p.sum(axis=1)
        assert abs(deg[:1000].mean() / deg[1000:].mean() - ratio) <= 1e-6

    def test_config_periphery_scores_far_below_core(self):
        # inside Definition 2 a periphery row is d_j / sum(d) up to its zero
        # diagonal, so its noiseless config score is only that diagonal term
        cfg = SynthConfig(graphon=G1, n_core=1000, n_periphery=1000, periphery="config",
                          degree_ratio=3.0, target_density=0.02, seed=0)
        inst = generate_instance(cfg)
        values = scores_from_truth(inst.assembly.dense(), "config").values
        assert 10.0 * values[~inst.truth].max() <= values[inst.truth].min()

    def test_presets(self):
        assert PRESET_SIZES["balanced"] == (1000, 1000)
        assert PRESET_SIZES["small-core"] == (700, 1300)
        assert PRESET_SIZES["large-core"] == (1300, 700)
