import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (dense_config_scores, dense_er_scores, random_graph,
                      random_orthonormal)
from corex.errors import DomainError
from corex.graph import _ROW_BLOCK, SparseGraph, degrees, load_edge_list
from corex.spectral import (DEFAULT_TOL, CoreScores, SpectralDecomposition,
                            config_scores, diagnostics, er_scores, scores_from_truth,
                            truncated_eigs)
from corex.synth import (ConfigAssembly, ErAssembly, SynthConfig, generate_instance,
                         graphon_by_number)


def dense_reference_eigs(matrix: np.ndarray, r: int):
    """Oracle: full dense eigendecomposition, magnitude-truncated."""
    vals, vecs = np.linalg.eigh(matrix)
    order = np.argsort(-np.abs(vals), kind="stable")
    return vals[order[:r]], vecs[:, order[:r]]


class TestTruncatedEigs:
    def test_complete_graph_k3(self):
        g = load_edge_list(["0 1", "1 2", "0 2"])
        dec = truncated_eigs(g, 2, seed=0)
        assert dec.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)
        assert dec.eigenvalues[1] == pytest.approx(-1.0, abs=1e-9)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(2))) < 1e-8

    def test_single_edge(self):
        g = load_edge_list(["0 1"])
        dec = truncated_eigs(g, 1, seed=0)
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        v = dec.eigenvectors[:, 0]
        assert np.allclose(np.abs(v), 1 / np.sqrt(2), atol=1e-8)

    def test_against_dense_solver(self):
        g = random_graph(50, 0.3, seed=9)
        dec = truncated_eigs(g, 5, seed=1)
        ref_vals, ref_vecs = dense_reference_eigs(g.to_csr().toarray(), 5)
        scale = max(1.0, abs(ref_vals[0]))
        assert np.max(np.abs(dec.eigenvalues - ref_vals)) <= 1e-8 * scale
        # principal angle between the spanned subspaces
        sigma = np.linalg.svd(ref_vecs.T @ dec.eigenvectors, compute_uv=False)
        assert np.arccos(np.clip(sigma.min(), -1, 1)) <= 1e-6

    def test_residuals_meet_tolerance(self):
        g = random_graph(80, 0.2, seed=3)
        tol = DEFAULT_TOL
        dec = truncated_eigs(g, 4, seed=5)
        a = g.to_csr().toarray()
        for k in range(4):
            u = dec.eigenvectors[:, k]
            resid = np.linalg.norm(a @ u - dec.eigenvalues[k] * u)
            assert resid <= tol * max(1.0, abs(dec.eigenvalues[0]))

    def test_rank_domain_error(self):
        g = load_edge_list(["0 1"])
        with pytest.raises(DomainError):
            truncated_eigs(g, 2)

    def test_empty_graph_zero_spectrum(self):
        g = SparseGraph.from_pairs(5, [])
        dec = truncated_eigs(g, 2, seed=0)
        assert np.all(dec.eigenvalues == 0.0)

    def test_rank_and_size_come_from_the_arrays(self):
        dec = truncated_eigs(random_graph(30, 0.3, seed=4), 3, seed=0)
        assert (dec.rank, dec.source_n) == (3, 30)

    @pytest.mark.parametrize("vals, vecs", [
        (np.ones(2), np.eye(5)[:, :3]),  # fewer eigenvalues than eigenvectors
        (np.ones(3), np.eye(5)[:, :2]),  # more eigenvalues than eigenvectors
        (np.ones((2, 1)), np.eye(5)[:, :2]),  # eigenvalues not a vector
        (np.ones(2), np.ones(5)),  # eigenvectors not a matrix
    ])
    def test_mismatched_shapes_are_domain_errors(self, vals, vecs):
        with pytest.raises(DomainError, match="do not match"):
            SpectralDecomposition(vals, vecs)

    def test_deterministic(self):
        g = random_graph(40, 0.25, seed=2)
        d1 = truncated_eigs(g, 3, seed=17)
        d2 = truncated_eigs(g, 3, seed=17)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_signed_ordering_switch(self):
        # path 0-1, 1-2: spectrum {sqrt2, 0, -sqrt2}; magnitude ordering keeps
        # -sqrt2 where a signed ordering would keep 0
        g = load_edge_list(["0 1", "1 2"])
        mag = truncated_eigs(g, 2, seed=0)
        assert sorted(np.round(mag.eigenvalues, 6)) == [-np.round(np.sqrt(2), 6),
                                                        np.round(np.sqrt(2), 6)]


def full_rank_decomposition(p: np.ndarray) -> SpectralDecomposition:
    vals, vecs = np.linalg.eigh(p)
    order = np.argsort(-np.abs(vals), kind="stable")
    return SpectralDecomposition(vals[order], vecs[:, order])


class TestErScores:
    def test_pure_er_constant(self):
        n, prob = 20, 0.35
        entries = np.full((n, n), prob)
        np.fill_diagonal(entries, 0.0)
        dec = full_rank_decomposition(entries)
        values = er_scores(dec).values
        expected = prob * np.sqrt((n - 1) / n)
        assert np.allclose(values, expected, rtol=1e-10)

    def test_two_block_matches_brute_force(self):
        entries = np.zeros((6, 6))
        entries[:3, :3] = 0.7
        entries[3:, 3:] = 0.2
        entries[:3, 3:] = 0.1
        entries[3:, :3] = 0.1
        np.fill_diagonal(entries, 0.0)
        dec = full_rank_decomposition(entries)
        values = er_scores(dec).values
        oracle = dense_er_scores(dec.eigenvectors, dec.eigenvalues)
        assert np.max(np.abs(values - oracle) / oracle) <= 1e-10

    def test_zero_spectrum_gives_zero_scores(self):
        dec = SpectralDecomposition(np.zeros(2), np.eye(5)[:, :2])
        assert np.all(er_scores(dec).values == 0.0)

    def test_gram_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            r = int(rng.integers(1, 11))
            u = random_orthonormal(n, r, rng)
            lam = rng.standard_normal(r) * 10
            dec = SpectralDecomposition(*_magnitude_sort(lam, u))
            values = er_scores(dec).values
            oracle = dense_er_scores(dec.eigenvectors, dec.eigenvalues)
            denom = np.maximum(np.abs(oracle), 1e-30)
            assert np.max(np.abs(values - oracle) / denom) <= 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        u = random_orthonormal(30, 3, rng)
        lam = np.array([5.0, -2.0, 1.0])
        base = er_scores(SpectralDecomposition(lam, u)).values
        scaled = er_scores(SpectralDecomposition(2.5 * lam, u)).values
        assert np.allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        u = random_orthonormal(25, 4, rng)
        lam = np.array([6.0, -4.0, 2.0, 1.0])
        base = er_scores(SpectralDecomposition(lam, u)).values
        perm = rng.permutation(25)
        permuted = er_scores(SpectralDecomposition(lam, u[perm])).values
        assert np.allclose(permuted, base[perm], rtol=1e-12)


def _magnitude_sort(lam, u):
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], u[:, order]


class TestConfigScores:
    def test_parameter_configuration_closed_form(self):
        # diagonal-included convention: entries theta_i theta_j / sum(theta),
        # degree correction by the parameter vector itself
        rng = np.random.default_rng(12)
        n = 30
        theta = 1.0 + rng.random(n) * 3.0
        total = theta.sum()
        entries = np.outer(theta, theta) / (total * 2.0)  # keep entries < 1
        np.fill_diagonal(entries, 0.0)
        dec = full_rank_decomposition(entries)
        values = config_scores(dec, theta).values
        expected = np.sqrt((n - 1) / n) * theta / (total * 2.0)
        assert np.max(np.abs(values - expected) / expected) <= 1e-10

    def test_heterogeneous_matches_brute_force(self):
        entries = np.zeros((6, 6))
        entries[:3, :3] = 0.6
        entries[3:, 3:] = 0.15
        entries[:3, 3:] = 0.3
        entries[3:, :3] = 0.3
        np.fill_diagonal(entries, 0.0)
        dec = full_rank_decomposition(entries)
        deg = entries.sum(axis=1)
        values = config_scores(dec, deg).values
        oracle = dense_config_scores(dec.eigenvectors, dec.eigenvalues, deg)
        assert np.max(np.abs(values - oracle) / oracle) <= 1e-10

    def test_regular_graph_reduces_to_er(self):
        g = load_edge_list(["0 1", "1 2", "2 3", "3 0"])  # 2-regular cycle
        dec = truncated_eigs(g, 2, seed=0)
        er = er_scores(dec).values
        cfg = config_scores(dec, degrees(g)).values
        assert np.allclose(cfg, er / 2.0, rtol=1e-10)

    def test_zero_degree_exclusion(self):
        g = load_edge_list(["n 4", "0 1", "1 2"])  # node 3 isolated
        dec = truncated_eigs(g, 2, seed=0)
        scores = config_scores(dec, degrees(g))
        assert scores.excluded == (3,)
        assert scores.values[3] == 0.0

    def test_gram_matches_brute_force_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            r = int(rng.integers(1, 11))
            u = random_orthonormal(n, r, rng)
            lam = rng.standard_normal(r) * 5
            deg = rng.integers(1, 20, size=n).astype(np.float64)
            dec = SpectralDecomposition(*_magnitude_sort(lam, u))
            values = config_scores(dec, deg).values
            oracle = dense_config_scores(dec.eigenvectors, dec.eigenvalues, deg)
            denom = np.maximum(np.abs(oracle), 1e-30)
            assert np.max(np.abs(values - oracle) / denom) <= 1e-10

    @given(st.integers(3, 40), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_zero_degree_nodes_match_brute_force(self, n, r, seed, zero_share):
        rng = np.random.default_rng(seed)
        r = min(r, n - 1)
        u = random_orthonormal(n, r, rng)
        lam = rng.standard_normal(r) * 5
        deg = rng.integers(1, 20, size=n).astype(np.float64)
        deg[rng.random(n) < zero_share] = 0.0
        dec = SpectralDecomposition(*_magnitude_sort(lam, u))
        scores = config_scores(dec, deg)
        assert scores.excluded == tuple(np.nonzero(deg == 0)[0].tolist())
        oracle = dense_config_scores(dec.eigenvectors, dec.eigenvalues, deg)
        assert np.all(scores.values[deg == 0] == 0.0)
        np.testing.assert_allclose(scores.values, oracle, rtol=1e-10,
                                   atol=1e-13 * np.abs(lam).max())


class TestScoresFromTruth:
    def test_pure_er(self):
        n, prob = 100, 0.1
        entries = np.full((n, n), prob)
        np.fill_diagonal(entries, 0.0)
        values = scores_from_truth(entries, "er").values
        assert np.allclose(values, 0.1 * np.sqrt(99 / 100), rtol=1e-12)

    def test_one_hot_row(self):
        n = 10
        entries = np.full((n, n), 0.1)
        entries[0, :] = 0.9
        entries[:, 0] = 0.9
        np.fill_diagonal(entries, 0.0)
        values = scores_from_truth(entries, "er").values
        # hand-checked dense formula
        h = np.eye(n) - np.ones((n, n)) / n
        oracle = np.linalg.norm(entries @ h, axis=1)
        assert np.allclose(values, oracle, rtol=1e-12)

    def test_regular_configuration_closed_form(self):
        # zero-diagonal regular configuration model: the lemma constant is
        # d_i over the sum of the other degrees, exactly
        for n, d in ((10, 3.0), (100, 12.0)):
            c = d / (n - 1)
            entries = np.full((n, n), c)
            np.fill_diagonal(entries, 0.0)
            values = scores_from_truth(entries, "config").values
            expected = np.sqrt((n - 1) / n) * d / ((n - 1) * d)
            assert np.max(np.abs(values - expected)) <= 1e-10

    def test_config_zero_degree_error(self):
        entries = np.zeros((4, 4))
        entries[0, 1] = entries[1, 0] = 0.5
        with pytest.raises(DomainError):
            scores_from_truth(entries, "config")

    def test_row_blocks_equal_whole_matrix_formula(self):
        # n spans several row blocks and is not a multiple of the block size
        n = 549
        assert n > _ROW_BLOCK // n and n % (_ROW_BLOCK // n)
        rng = np.random.default_rng(8)
        raw = rng.random((n, n)) * 0.5
        entries = (raw + raw.T) / 2
        np.fill_diagonal(entries, 0.0)
        centered = entries - entries.mean(axis=1, keepdims=True)
        assert np.array_equal(scores_from_truth(entries, "er").values,
                              np.linalg.norm(centered, axis=1))
        scaled = entries / entries.sum(axis=1)[np.newaxis, :]
        centered = scaled - scaled.mean(axis=1, keepdims=True)
        assert np.array_equal(scores_from_truth(entries, "config").values,
                              np.linalg.norm(centered, axis=1))


class TestDiagnostics:
    def test_h_scaling_two_block(self):
        # planted two-block model: h(n) tracks p* sqrt(n)
        ratios = []
        for n in (100, 200, 400):
            p_star = 0.2
            half = n // 2
            core = np.full((half, half), p_star)
            np.fill_diagonal(core, 0.0)
            assembly = ErAssembly(core, 1.0, n - half, 0.3 * p_star)
            report = diagnostics(assembly, r=2)
            ratios.append(report.h_n / (p_star * np.sqrt(n)))
        ratios = np.asarray(ratios)
        assert np.max(ratios) / np.min(ratios) < 1.2

    def test_low_rank_gap(self):
        # rank-3 block-constant matrix: three blocks of ten, no periphery
        entries = np.zeros((30, 30))
        for k, v in enumerate((0.6, 0.4, 0.2)):
            entries[10 * k:10 * (k + 1), 10 * k:10 * (k + 1)] = v
        np.fill_diagonal(entries, 0.0)
        report = diagnostics(ErAssembly(entries, 1.0, 0, 0.5), r=3)
        # the zero-diagonal perturbs exact low-rankness by the block values
        assert abs(report.eigenvalues[5]) <= 0.6 + 1e-9
        # an exactly low-rank matrix (diagonal kept) has lambda_4 == 0
        vals = np.linalg.eigvalsh(entries + np.diag([0.6] * 10 + [0.4] * 10 + [0.2] * 10))
        mags = np.sort(np.abs(vals))[::-1]
        assert mags[3] <= 1e-10

    def test_rank_checked_before_any_spectrum(self, monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("spectrum computed before the rank was checked")

        core = np.full((4, 4), 0.1)
        np.fill_diagonal(core, 0.0)
        config = generate_instance(SynthConfig(
            graphon=graphon_by_number(1), n_core=4, n_periphery=6, periphery="config",
            degree_ratio=2.0, target_density=0.2)).assembly
        monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
        for assembly in (ErAssembly(core, 1.0, 6, 0.1), config):
            for r in (0, 10, 11):
                with pytest.raises(DomainError, match=f"rank r={r} must satisfy"):
                    diagnostics(assembly, r=r)


def dense_diagnostics(p: np.ndarray, labels):
    """Oracle: (eigvalsh, p*, h(n), h'(n)) of the whole matrix, with h(n) and
    h'(n) the minimum scores_from_truth over the labelled core; h'(n) is
    None when an expected degree is 0."""
    h_prime_n = None
    if np.all(p.sum(axis=1) > 0):
        h_prime_n = float(scores_from_truth(p, "config").values[labels].min())
    return (np.linalg.eigvalsh(p), float(p.max()),
            float(scores_from_truth(p, "er").values[labels].min()), h_prime_n)


def assert_spectrum_matches_dense(p: np.ndarray, report):
    """Oracle: dense eigvalsh of the whole matrix, compared as a multiset
    to 1e-10 |lambda_1|; the report must also be magnitude-sorted."""
    dense = np.linalg.eigvalsh(p)
    scale = np.abs(dense).max()
    assert report.eigenvalues.shape == dense.shape
    assert np.max(np.abs(np.sort(report.eigenvalues) - dense)) <= 1e-10 * scale
    mags = np.abs(report.eigenvalues)
    assert np.all(mags[:-1] >= mags[1:])


def filled_by_hand(assembly) -> np.ndarray:
    """The n x n matrix of an ER assembly, built entry by entry."""
    nc, n = len(assembly.core), assembly.n
    return np.array([[0.0 if i == j else
                      min(assembly.c_core * assembly.core[i, j], 1.0)
                      if i < nc and j < nc else assembly.level
                      for j in range(n)] for i in range(n)])


def assert_assembly_matches_dense(assembly, r=3, perm=None):
    """Oracle: dense_diagnostics of the matrix filled by hand, its nodes
    relabelled by `perm` when given.  The ER-assembly report must match it
    to 1e-12 |lambda_1| in the spectrum and gap, to 1e-12 relative in h_n
    and h'_n, and exactly in p_star."""
    report = diagnostics(assembly, r)
    p, labels = filled_by_hand(assembly), np.arange(assembly.n) < len(assembly.core)
    if perm is not None:
        p, labels = p[np.ix_(perm, perm)], labels[perm]
    eigvals, p_star, h_n, h_prime_n = dense_diagnostics(p, labels)
    mags = np.sort(np.abs(eigvals))[::-1]
    assert report.eigenvalues.shape == eigvals.shape
    assert np.max(np.abs(np.sort(report.eigenvalues) - eigvals), initial=0.0) <= 1e-12 * mags[0]
    assert np.all(np.abs(report.eigenvalues)[:-1] >= np.abs(report.eigenvalues)[1:])
    assert abs(report.gap_r - (mags[r - 1] - mags[r])) <= 1e-12 * mags[0]
    assert report.p_star == p_star
    for got, want in ((report.h_n, h_n), (report.h_prime_n, h_prime_n)):
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-12 * want
    return report


class TestReducedSpectrum:
    """ER-type assemblies take the (n_c + 1)-square reduced spectrum and
    core-block scores; configuration-type assemblies are filled and take
    dense eigvalsh.  dense_diagnostics of the whole matrix is the oracle
    for both."""

    @settings(max_examples=150)
    @given(st.integers(1, 8), st.integers(0, 12),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_interleaved_er_assembly_matches_dense(self, n_core, n_periphery, level, seed):
        n = n_core + n_periphery
        assume(n >= 2)
        rng = np.random.default_rng(seed)
        core = np.triu(rng.random((n_core, n_core)), 1)
        assembly = ErAssembly(core + core.T, 1.0, n_periphery, level)
        assert_assembly_matches_dense(assembly, r=1)
        # the oracle's periphery interleaved with its core
        assert_assembly_matches_dense(assembly, r=1, perm=rng.permutation(n))

    def test_assembly_edge_cases(self):
        core = np.array([[0.0, 0.6, 0.2], [0.6, 0.0, 0.9], [0.2, 0.9, 0.0]])
        for n_periphery, level in ((0, 0.3), (1, 0.3), (4, 1.0), (4, 0.95)):
            assert_assembly_matches_dense(ErAssembly(core, 1.5, n_periphery, level), r=2)
        # without a periphery the level is in no entry, so not in p_star
        assert diagnostics(ErAssembly(core, 0.5, 0, 0.9), 2).p_star == 0.45
        # a core row of zeros has degree 0: no config score, as in the dense path
        isolated = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert assert_assembly_matches_dense(ErAssembly(isolated, 1.0, 0, 0.3),
                                             r=1).h_prime_n is None

    def test_config_instance_takes_dense_path(self):
        cfg = SynthConfig(graphon=graphon_by_number(1), n_core=30, n_periphery=40,
                          periphery="config", degree_ratio=2.0, target_density=0.1, seed=4)
        inst = generate_instance(cfg)
        assert isinstance(inst.assembly, ConfigAssembly)
        report = diagnostics(inst.assembly, 3)
        p = inst.assembly.dense()
        assert_spectrum_matches_dense(p, report)
        # the same dense arithmetic over the first n_core rows: equal, not close
        eigvals, p_star, h_n, h_prime_n = dense_diagnostics(p, inst.truth)
        assert np.array_equal(np.sort(report.eigenvalues), eigvals)
        assert (report.p_star, report.h_n, report.h_prime_n) == (p_star, h_n, h_prime_n)

    def test_unclipped_er_instance_matches_dense(self):
        cfg = SynthConfig(graphon=graphon_by_number(1), n_core=30, n_periphery=40, periphery="er",
                          degree_ratio=2.0, target_density=0.05, seed=4)
        inst = generate_instance(cfg)
        assert inst.meta["rescale_clip_count"] == 0
        assert_assembly_matches_dense(inst.assembly)

    def test_clipped_er_instance_takes_reduced_path(self):
        cfg = SynthConfig(graphon=graphon_by_number(2), n_core=30, n_periphery=40, periphery="er",
                          degree_ratio=3.0, target_density=0.2, seed=1)
        inst = generate_instance(cfg)
        assert inst.meta["rescale_clip_count"] > 0
        assert inst.assembly.level == inst.meta["c_periphery"] * inst.meta["er_level"]
        report = assert_assembly_matches_dense(inst.assembly)
        p = inst.assembly.dense()
        assert_spectrum_matches_dense(p, report)
        h_n = float(scores_from_truth(p, "er").values[:30].min())
        assert abs(report.h_n - h_n) <= 1e-12 * h_n

    def test_er_diagnostics_need_no_dense_matrix(self):
        # the dense path holds the n x n matrix (8 n^2 bytes); the assembly
        # path holds the core block and O(n) vectors
        n_core, n_periphery = 200, 4000
        cfg = SynthConfig(graphon=graphon_by_number(1), n_core=n_core, n_periphery=n_periphery,
                          periphery="er", degree_ratio=3.0, target_density=0.02, seed=0)
        tracemalloc.start()
        try:
            inst = generate_instance(cfg)
            diagnostics(inst.assembly, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 8 * (n_core + n_periphery) ** 2
