import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dense_er, mann_whitney_auc, random_graph
from corex.baselines import coreness_scores
from corex.coreid import identify_top_k, threshold_er
from corex.errors import DomainError
from corex.evaluate import (eigengap_profile, kcore_points, operating_point,
                            roc, run_experiment)
from corex.graph import ProbabilityMatrix, load_edge_list
from corex.spectral import CoreScores
from corex.synth import SynthConfig, graphon_by_number


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert curve.auc == 1.0
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)

    def test_reversed(self):
        curve = roc([0.1, 0.2, 0.8, 0.9], [True, True, False, False])
        assert curve.auc == 0.0

    def test_tied_scores_half_credit(self):
        curve = roc([1.0, 1.0, 0.0, 0.0], [True, False, True, False])
        assert curve.auc == pytest.approx(0.5, abs=1e-15)

    def test_monotone_points(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 5, 60).astype(float)
        truth = rng.random(60) < 0.4
        curve = roc(values, truth)
        assert np.all(np.diff(curve.points[:, 0]) >= 0)
        assert np.all(np.diff(curve.points[:, 1]) >= 0)

    def test_degenerate_truth_rejected(self):
        with pytest.raises(DomainError):
            roc([1.0, 2.0], [True, True])

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(5, 80))
            values = rng.integers(0, 6, n).astype(float)  # heavy ties
            truth = np.zeros(n, dtype=bool)
            truth[rng.permutation(n)[:max(1, n // 3)]] = True
            curve = roc(values, truth)
            assert curve.auc == pytest.approx(mann_whitney_auc(values, truth),
                                              abs=1e-12)

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 1.5, 4.0]), st.booleans()),
                    min_size=2, max_size=50))
    @settings(max_examples=150)
    def test_ties_match_brute_force(self, pairs):
        values, truth = (np.array(col) for col in zip(*pairs))
        truth = truth.astype(bool)
        assume(truth.any() and not truth.all())
        curve = roc(values, truth)
        # one point per distinct score: everything scoring at least t is called core
        expected = [(0.0, 0.0)] + [(np.sum(~truth & (values >= t)) / np.sum(~truth),
                                    np.sum(truth & (values >= t)) / np.sum(truth))
                                   for t in sorted(set(values.tolist()), reverse=True)]
        np.testing.assert_allclose(curve.points, expected, rtol=0, atol=1e-15)
        assert curve.auc == pytest.approx(mann_whitney_auc(values, truth), abs=1e-12)

    def test_auc_equals_trapezoid_of_points(self):
        rng = np.random.default_rng(2)
        values = rng.random(40)
        truth = rng.random(40) < 0.5
        truth[0] = True
        truth[1] = False
        curve = roc(values, truth)
        assert curve.auc == pytest.approx(
            np.trapezoid(curve.points[:, 1], curve.points[:, 0]), abs=1e-15)


class TestOperatingPoint:
    def test_perfect(self):
        truth = np.array([True, True, False, False])
        part = identify_top_k(np.array([3.0, 2.0, 1.0, 0.5]), 2)
        assert operating_point(part, truth) == (0.0, 1.0)

    def test_all_core(self):
        truth = np.array([True, False, False])
        part = identify_top_k(np.array([1.0, 2.0, 3.0]), 3)
        assert operating_point(part, truth) == (1.0, 1.0)

    def test_empty_core(self):
        truth = np.array([True, False])
        part = identify_top_k(np.array([1.0, 2.0]), 0)
        assert operating_point(part, truth) == (0.0, 0.0)

    def test_point_under_own_roc_envelope(self):
        rng = np.random.default_rng(3)
        values = rng.random(100)
        truth = rng.random(100) < 0.5
        truth[:2] = [True, False]
        curve = roc(values, truth)
        scores = CoreScores(values=values, model="er")
        for eps in (0.05, 0.2, 0.5):
            part = threshold_er(scores, p_hat=0.4, n=100, eps=eps)
            fpr, tpr = operating_point(part, truth)
            envelope = np.interp(fpr, curve.points[:, 0], curve.points[:, 1])
            assert tpr <= envelope + 1e-12


class TestKcorePoints:
    def test_extremes(self):
        g = load_edge_list(["0 1", "1 2", "0 2", "2 3"])
        truth = np.array([True, True, True, False])
        points = kcore_points(coreness_scores(g), truth)
        assert points[0] == (1.0, 1.0)
        assert points[-1] == (0.0, 0.0)

    def test_triangle_pendant_k2(self):
        g = load_edge_list(["0 1", "1 2", "0 2", "2 3"])
        truth = np.array([True, True, True, False])
        points = kcore_points(coreness_scores(g), truth)
        assert points[2] == (0.0, 1.0)  # k = 2 keeps exactly the triangle

    def test_nonincreasing(self):
        g = random_graph(40, 0.2, seed=4)
        truth = np.zeros(40, dtype=bool)
        truth[:20] = True
        points = np.array(kcore_points(coreness_scores(g), truth))
        assert np.all(np.diff(points[:, 0]) <= 0)
        assert np.all(np.diff(points[:, 1]) <= 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=2, max_size=60))
    def test_matches_per_level_count(self, nodes):
        # reference: count both classes again at every level
        values = np.array([k for k, _ in nodes], dtype=np.float64)
        truth = np.array([c for _, c in nodes])
        assume(truth.any() and not truth.all())
        n_core, n_peri = int(truth.sum()), int((~truth).sum())
        expected = [(int((~truth & (values >= k)).sum()) / n_peri,
                     int((truth & (values >= k)).sum()) / n_core)
                    for k in range(int(values.max()) + 2)]
        points = kcore_points(values, truth)
        assert points == expected
        assert all(type(x) is float for point in points for x in point)


def rank3_core(n=90):
    entries = np.full((n, n), 0.05)
    third = n // 3
    for k, v in enumerate((0.9, 0.7, 0.5)):
        entries[k * third:(k + 1) * third, k * third:(k + 1) * third] = v
    np.fill_diagonal(entries, 0.0)
    return ProbabilityMatrix(entries)


class TestEigengapProfile:
    def test_no_periphery_gap_positive(self):
        records = eigengap_profile(rank3_core(), [0], periphery_level=0.05)
        assert records[0]["gap_3_4"] > 0

    def test_normalized_gap_nonincreasing(self):
        records = eigengap_profile(rank3_core(), [0, 50, 100, 200],
                                   periphery_level=0.05)
        gaps = [r["normalized_gap"] for r in records]
        assert gaps[0] > 0
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_deterministic(self):
        a = eigengap_profile(rank3_core(), [0, 30], periphery_level=0.04)
        b = eigengap_profile(rank3_core(), [0, 30], periphery_level=0.04)
        assert a == b

    @pytest.mark.parametrize("level", [1e-3, 0.05, 0.5, 0.999])
    def test_matches_dense_assembly(self, level):
        # oracle: dense eigvalsh of the assembled n x n matrix
        core = rank3_core(30)
        sizes = [0, 1, 2, 7, 60]
        records = eigengap_profile(core, sizes, periphery_level=level)
        for n_peri, rec in zip(sizes, records):
            mags = np.sort(np.abs(np.linalg.eigvalsh(
                dense_er(core, n_peri, level))))[::-1]
            assert rec["n_periphery"] == n_peri
            assert abs(rec["lambda_1"] - mags[0]) <= 1e-10 * mags[0]
            assert abs(rec["gap_3_4"] - (mags[2] - mags[3])) <= 1e-10 * mags[0]
            assert abs(rec["normalized_gap"] - (mags[2] - mags[3]) / mags[0]) <= 1e-10

    @settings(max_examples=80)
    @given(st.integers(4, 40), st.sampled_from(["random", "rounded", "blocks"]),
           st.floats(1e-3, 0.999), st.integers(0, 2 ** 32 - 1))
    def test_property_matches_dense_assembly(self, n_core, kind, level, seed):
        # oracle: dense eigvalsh of the assembled n x n matrix, on cores with
        # distinct eigenvalues, with exact multiplicities (a few rounded
        # values), and block-constant ones (many eigenvalues equal, many
        # eigenvectors orthogonal to the all-ones vector)
        rng = np.random.default_rng(seed)
        if kind == "blocks":
            block = rng.integers(0, rng.integers(1, 4, endpoint=True), n_core)
            levels = np.round(rng.random((4, 4)), 1)
            entries = np.maximum(levels, levels.T)[block[:, None], block[None, :]]
        else:
            entries = rng.random((n_core, n_core))
            if kind == "rounded":
                entries = np.round(entries * 2.0) / 2.0
            entries = np.triu(entries, 1) + np.triu(entries, 1).T
        np.fill_diagonal(entries, 0.0)
        core = ProbabilityMatrix(entries)
        sizes = [0, 1, 2, n_core + int(rng.integers(1, 50))]
        for rec in eigengap_profile(core, sizes, periphery_level=level):
            mags = np.sort(np.abs(np.linalg.eigvalsh(
                dense_er(core, rec["n_periphery"], level))))[::-1]
            assert abs(rec["lambda_1"] - mags[0]) <= 1e-10 * mags[0]
            assert abs(rec["gap_3_4"] - (mags[2] - mags[3])) <= 1e-10 * mags[0]
            if mags[0] > 0:
                assert abs(rec["normalized_gap"] - (mags[2] - mags[3]) / mags[0]) <= 1e-10

    @pytest.mark.parametrize("sizes, level", [([0, 10, -1], 0.05),
                                              ([0, 10], 0.0),
                                              ([0, 10], 1.0),
                                              ([0], -0.5)])
    def test_bad_input_rejected_before_any_spectrum(self, monkeypatch, sizes, level):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("spectrum computed before the input was checked")

        monkeypatch.setattr(np.linalg, "eigh", no_spectrum)
        with pytest.raises(DomainError):
            eigengap_profile(rank3_core(), sizes, periphery_level=level)


class TestRunExperiment:
    def test_degree_only_deterministic(self):
        cfg = SynthConfig(n_core=30, n_periphery=30, periphery="er",
                          degree_ratio=2.0, target_density=0.08, seed=5)
        g1 = graphon_by_number(1)
        a = run_experiment(g1, cfg, methods=("degree",), replicates=1)
        b = run_experiment(g1, cfg, methods=("degree",), replicates=1)
        assert a.aucs == b.aucs
        assert a.replicate_seeds == b.replicate_seeds

    def test_proposed_beats_degree_at_equal_density_small(self):
        # miniature version of the headline comparison
        cfg = SynthConfig(n_core=100, n_periphery=100, periphery="er",
                          degree_ratio=1.0, target_density=0.15, seed=7)
        g1 = graphon_by_number(1)
        result = run_experiment(g1, cfg, methods=("proposed_er", "degree"),
                                replicates=3, rank=6)
        assert result.mean_auc("proposed_er") > result.mean_auc("degree")

    def test_summary_shape(self):
        cfg = SynthConfig(n_core=25, n_periphery=25, periphery="config",
                          degree_ratio=2.0, target_density=0.1, seed=9)
        g2 = graphon_by_number(2)
        result = run_experiment(g2, cfg,
                                methods=("proposed_config", "kcore"),
                                replicates=2, rank=3)
        payload = result.summary_dict()
        assert set(payload["auc"]) == {"proposed_config", "kcore"}
        assert len(payload["auc"]["kcore"]["values"]) == 2
        assert "threshold_config" in payload["operating_points"]

    def test_unknown_method_rejected(self):
        cfg = SynthConfig(n_core=10, n_periphery=10, periphery="er",
                          degree_ratio=1.0, target_density=0.1, seed=0)
        with pytest.raises(DomainError):
            run_experiment(graphon_by_number(1), cfg, methods=("nope",))

    def test_repeated_method_rejected(self):
        cfg = SynthConfig(n_core=10, n_periphery=10, periphery="er",
                          degree_ratio=1.0, target_density=0.1, seed=0)
        with pytest.raises(DomainError, match="twice"):
            run_experiment(graphon_by_number(1), cfg, methods=("degree", "degree"))
