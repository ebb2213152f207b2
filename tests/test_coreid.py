import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corex.coreid import (RankSelection, identify_top_k, kmeans_split,
                          select_rank_ecv, threshold_config, threshold_er)
from corex.errors import DegenerateError, DomainError
from corex.graph import ProbabilityMatrix, sample_adjacency
from corex.spectral import CoreScores

# frozen independent evaluations (decimal arithmetic, 60 digits)
ER_CUTOFF_N100_P004 = 0.43615668958789177
CONFIG_CUTOFF_N100_P004 = 0.10903917239697294


def er(values):
    return CoreScores(values=np.asarray(values, dtype=float), model="er", rank_used=1)


def cfg(values):
    return CoreScores(values=np.asarray(values, dtype=float), model="config", rank_used=1)


class TestTopK:
    def test_basic(self):
        part = identify_top_k(er([3.0, 1.0, 2.0]), 2)
        assert set(np.nonzero(part.labels)[0]) == {0, 2}
        assert part.selection_method == "topk" and part.cutoff is None

    def test_zero_core(self):
        part = identify_top_k(er([1.0, 2.0]), 0)
        assert not part.labels.any()

    def test_tie_breaks_to_smaller_index(self):
        part = identify_top_k(er([1.0, 1.0, 1.0]), 1)
        assert list(np.nonzero(part.labels)[0]) == [0]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            identify_top_k(er([1.0]), 2)

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(0)
        values = rng.random(50)
        a = identify_top_k(er(values), 20)
        b = identify_top_k(er(np.exp(3 * values)), 20)
        assert np.array_equal(a.labels, b.labels)


class TestThresholdEr:
    def test_frozen_cutoff(self):
        part = threshold_er(er(np.zeros(100)), p_hat=0.04, n=100, eps=0.01)
        assert part.cutoff == pytest.approx(ER_CUTOFF_N100_P004, rel=1e-12)

    def test_all_zero_scores_empty_core(self):
        part = threshold_er(er(np.zeros(10)), p_hat=0.5, n=10)
        assert part.n_core == 0

    def test_phat_one(self):
        n = 50
        cutoff = np.sqrt(np.log(n))
        values = np.full(n, 0.1)
        values[:3] = cutoff + 0.5
        part = threshold_er(er(values), p_hat=1.0, n=n, eps=0.3)
        assert part.cutoff == pytest.approx(cutoff, rel=1e-12)
        assert part.n_core == 3

    def test_zero_phat_rejected(self):
        with pytest.raises(DomainError):
            threshold_er(er(np.ones(5)), p_hat=0.0, n=5)

    def test_model_tag_enforced(self):
        with pytest.raises(DomainError):
            threshold_er(cfg(np.ones(5)), p_hat=0.5, n=5)

    def test_raising_eps_never_adds_core_nodes(self):
        rng = np.random.default_rng(1)
        values = rng.random(200)
        p_hat = 0.3  # < 1, cutoff grows with eps
        small = threshold_er(er(values), p_hat, 200, eps=0.01)
        large = threshold_er(er(values), p_hat, 200, eps=0.2)
        assert set(np.nonzero(large.labels)[0]) <= set(np.nonzero(small.labels)[0])

    def test_respects_score_order(self):
        rng = np.random.default_rng(2)
        values = rng.random(100) * 3
        part = threshold_er(er(values), 0.2, 100)
        if part.n_core and part.n_core < 100:
            assert values[part.labels].min() > values[~part.labels].max()


class TestThresholdConfig:
    def test_frozen_cutoff(self):
        part = threshold_config(cfg(np.zeros(100)), p_hat=0.04, n=100, eps=0.01)
        assert part.cutoff == pytest.approx(CONFIG_CUTOFF_N100_P004, rel=1e-12)

    def test_all_zero_scores_empty_core(self):
        part = threshold_config(cfg(np.zeros(10)), p_hat=0.5, n=10)
        assert part.n_core == 0

    def test_cutoff_decreases_in_n(self):
        c1 = threshold_config(cfg(np.zeros(100)), 0.1, 100).cutoff
        c2 = threshold_config(cfg(np.zeros(200)), 0.1, 200).cutoff
        assert c2 < c1

    def test_zero_phat_rejected(self):
        with pytest.raises(DomainError):
            threshold_config(cfg(np.ones(5)), p_hat=0.0, n=5)


class TestKmeansSplit:
    def test_separated_clusters(self):
        values = [np.e ** 2, np.e ** 2, np.e ** -2, np.e ** -2]
        part = kmeans_split(er(values))
        assert list(part.labels) == [True, True, False, False]

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            kmeans_split(er([1.0, 1.0, 1.0, 1.0]))

    def test_bimodal_mixture_recovery(self):
        rng = np.random.default_rng(7)
        n = 2000
        component = rng.random(n) < 0.5
        values = np.where(component,
                          np.exp(rng.normal(2.0, 0.3, n)),
                          np.exp(rng.normal(-2.0, 0.3, n)))
        part = kmeans_split(er(values))
        agreement = np.mean(part.labels == component)
        assert agreement >= 0.99

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(9)
        values = np.exp(rng.normal(0, 2, 300)) + 1.0
        a = kmeans_split(er(values))
        b = kmeans_split(er(values * 37.5))
        assert np.array_equal(a.labels, b.labels)

    def test_floor_scores_are_periphery(self):
        part = kmeans_split(er([0.0, 0.0, 0.5, 0.6, 5.0, 6.0]))
        assert list(part.labels) == [False, False, False, False, True, True]

    def test_floor_scores_leave_no_split(self):
        with pytest.raises(DegenerateError):
            kmeans_split(er([0.0, 0.0, 0.0, 3.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=60),
           st.integers(1, 20))
    def test_appended_zero_scores_change_no_label(self, values, zeros):
        # the split is fitted on log scores: distinct values whose logs
        # coincide (1e-6 and 1e-6 + 1 ulp) leave no split, by design
        assume(len(set(np.log(values))) >= 2)
        base = kmeans_split(er(values))
        padded = kmeans_split(er(values + [0.0] * zeros))
        assert np.array_equal(padded.labels[:len(values)], base.labels)
        assert not padded.labels[len(values):].any()


def planted_rank1(n, p, seed):
    entries = np.full((n, n), p)
    np.fill_diagonal(entries, 0.0)
    return sample_adjacency(ProbabilityMatrix(entries), seed)


def planted_sbm3(n, within, between, seed):
    entries = np.full((n, n), between)
    third = n // 3
    for k in range(3):
        lo, hi = k * third, (k + 1) * third if k < 2 else n
        entries[lo:hi, lo:hi] = within
    np.fill_diagonal(entries, 0.0)
    return sample_adjacency(ProbabilityMatrix(entries), seed)


class TestSelectRankEcv:
    def test_single_candidate(self):
        g = planted_rank1(60, 0.2, seed=0)
        sel = select_rank_ecv(g, [2], seed=0)
        assert sel.chosen_r == 2

    def test_deterministic(self):
        g = planted_rank1(80, 0.25, seed=1)
        a = select_rank_ecv(g, [1, 2, 3], folds=3, holdout_fraction=0.1, seed=5)
        b = select_rank_ecv(g, [1, 2, 3], folds=3, holdout_fraction=0.1, seed=5)
        assert a == b

    def test_rank1_recovery_small(self):
        hits = 0
        for s in range(5):
            g = planted_rank1(300, 0.1, seed=100 + s)
            sel = select_rank_ecv(g, [1, 2, 3, 4], seed=s)
            hits += sel.chosen_r == 1
        assert hits >= 4

    def test_rank3_recovery_small(self):
        hits = 0
        for s in range(5):
            g = planted_sbm3(300, 0.5, 0.1, seed=200 + s)
            sel = select_rank_ecv(g, [1, 2, 3, 4, 5, 6], seed=s)
            hits += sel.chosen_r == 3
        assert hits >= 4

    def test_candidate_too_large(self):
        g = planted_rank1(20, 0.3, seed=2)
        with pytest.raises(DomainError):
            select_rank_ecv(g, [25])

    def test_json_export(self):
        sel = RankSelection(chosen_r=2, candidates=(1, 2),
                            candidate_losses=(0.5, 0.2), folds=3,
                            holdout_fraction=0.1)
        payload = sel.to_json_dict()
        assert payload["chosen_r"] == 2 and payload["losses"]["2"] == 0.2
