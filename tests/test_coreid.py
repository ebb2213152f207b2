import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import kmeans_split_loop, random_graph
from corex.coreid import (ECV_TOL, KMEANS_FLOOR, CorePartition, RankSelection, _edge_split,
                          _fold_losses, decompose, identify_top_k, kmeans_split, select,
                          select_rank_ecv, threshold, write_partition_csv)
from corex.errors import DegenerateError, DomainError
from corex.evaluate import RocCurve, write_roc_csv
from corex.graph import SparseGraph, sample_adjacency
from corex.spectral import CoreScores, _eigs, truncated_eigs, write_scores_csv

# frozen independent evaluations (decimal arithmetic, 60 digits)
ER_CUTOFF_N100_P004 = 0.43615668958789177
CONFIG_CUTOFF_N100_P004 = 0.10903917239697294


def er(values):
    return CoreScores(values=np.asarray(values, dtype=float), model="er")


def cfg(values):
    return CoreScores(values=np.asarray(values, dtype=float), model="config")


class TestTopK:
    def test_basic(self):
        part = identify_top_k(er([3.0, 1.0, 2.0]), 2)
        assert set(np.nonzero(part.labels)[0]) == {0, 2}
        assert part.cutoff is None

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

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=150)
    def test_ties_match_brute_force(self, values, data):
        # node i is core iff fewer than n_core nodes beat it, where j beats i
        # with a larger score, or an equal score and a smaller index
        n_core = data.draw(st.integers(0, len(values)))
        part = identify_top_k(er(values), n_core)
        expected = [sum(b > a or (b == a and j < i) for j, b in enumerate(values)) < n_core
                    for i, a in enumerate(values)]
        assert part.labels.tolist() == expected
        assert part.n_core == n_core == int(part.labels.sum())


class ThresholdCases:
    """Cases shared by both periphery models; each subclass names its
    model's scores (`make`) and its frozen cutoff at n = 100, p_hat = 0.04."""

    def test_frozen_cutoff(self):
        part = threshold(self.make(np.zeros(100)), p_hat=0.04, eps=0.01)
        assert part.cutoff == pytest.approx(self.frozen, rel=1e-12)

    def test_all_zero_scores_empty_core(self):
        part = threshold(self.make(np.zeros(10)), p_hat=0.5)
        assert part.n_core == 0

    def test_no_scores_rejected(self):
        # ln n has no value at n = 0
        with pytest.raises(DomainError, match="at least one score"):
            threshold(self.make(np.zeros(0)), p_hat=0.5)

    def test_zero_phat_rejected(self):
        with pytest.raises(DomainError):
            threshold(self.make(np.ones(5)), p_hat=0.0)

    @pytest.mark.parametrize("p_hat, eps", [(1.5, 0.01), (0.5, 0.0), (0.5, 1.0)])
    def test_out_of_range_rejected(self, p_hat, eps):
        with pytest.raises(DomainError):
            threshold(self.make(np.ones(5)), p_hat=p_hat, eps=eps)

    def test_raising_eps_never_adds_core_nodes(self):
        rng = np.random.default_rng(1)
        scores = self.make(rng.random(200))
        p_hat = 0.3  # < 1, so both models' cutoffs grow with eps
        small = threshold(scores, p_hat, eps=0.01)
        large = threshold(scores, p_hat, eps=0.2)
        assert large.cutoff > small.cutoff
        assert set(np.nonzero(large.labels)[0]) <= set(np.nonzero(small.labels)[0])

    def test_respects_score_order(self):
        rng = np.random.default_rng(2)
        values = rng.random(100) * 3
        part = threshold(self.make(values), 0.2)
        if part.n_core and part.n_core < 100:
            assert values[part.labels].min() > values[~part.labels].max()

    def test_n_is_the_score_count(self):
        # the cutoff sees the scores only through their count
        a = threshold(self.make(np.zeros(100)), 0.04).cutoff
        b = threshold(self.make(np.full(100, 7.0)), 0.04).cutoff
        c = threshold(self.make(np.zeros(101)), 0.04).cutoff
        assert a == b != c


class TestThresholdEr(ThresholdCases):
    make, frozen = staticmethod(er), ER_CUTOFF_N100_P004

    def test_phat_one(self):
        n = 50
        cutoff = np.sqrt(np.log(n))
        values = np.full(n, 0.1)
        values[:3] = cutoff + 0.5
        part = threshold(er(values), p_hat=1.0, eps=0.3)
        assert part.cutoff == pytest.approx(cutoff, rel=1e-12)
        assert part.n_core == 3


class TestThresholdConfig(ThresholdCases):
    make, frozen = staticmethod(cfg), CONFIG_CUTOFF_N100_P004

    def test_cutoff_decreases_in_n(self):
        c1 = threshold(cfg(np.zeros(100)), 0.1).cutoff
        c2 = threshold(cfg(np.zeros(200)), 0.1).cutoff
        assert c2 < c1


def test_scores_refuse_an_unknown_model():
    # the model picks the threshold's cutoff, so only the two defined models exist
    with pytest.raises(DomainError, match="unknown model 'bogus'"):
        CoreScores(np.ones(5), "bogus")


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

    @settings(max_examples=60)
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

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 1e-13, KMEANS_FLOOR, 0.5, 2.0, 7.0]),
                              st.floats(KMEANS_FLOOR, 1e6)), min_size=2, max_size=60))
    def test_matches_loop_oracle(self, values):
        # the vectorized split scan against a loop over every split: same
        # labels and the same cutoff, bit for bit, ties and zeros included
        try:
            labels, cutoff = kmeans_split_loop(values)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                kmeans_split(er(values))
            return
        part = kmeans_split(er(values))
        assert np.array_equal(part.labels, labels) and part.cutoff == cutoff

    @settings(max_examples=150)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 1e-13, KMEANS_FLOOR, 0.5, 2.0, 7.0]),
                              st.floats(KMEANS_FLOOR, 1e6)), min_size=2, max_size=40))
    def test_no_split_of_sorted_scores_is_better(self, values):
        # brute force over every split of the sorted live log-scores; the
        # sampled values give ties and scores at or below the floor
        values = np.array(values)
        live = values > KMEANS_FLOOR
        logs = np.log(values[live])
        x = np.sort(logs)
        if x.size < 2 or x[0] == x[-1]:
            with pytest.raises(DegenerateError):
                kmeans_split(er(values))
            return
        part = kmeans_split(er(values))
        assert not part.labels[~live].any()
        core = part.labels[live]
        assert core.any() and not core.all()
        assert logs[core].min() > logs[~core].max()  # a split of the sorted values

        def wcss(a):
            return float(np.sum((a - a.mean()) ** 2)) if a.size else 0.0

        chosen = wcss(logs[core]) + wcss(logs[~core])
        tol = 1e-9 * (1.0 + wcss(x))
        for k in range(1, x.size):
            assert chosen <= wcss(x[:k]) + wcss(x[k:]) + tol


def planted_rank1(n, p, seed):
    entries = np.full((n, n), p)
    np.fill_diagonal(entries, 0.0)
    return sample_adjacency(entries, seed)


def planted_sbm3(n, within, between, seed):
    entries = np.full((n, n), between)
    third = n // 3
    for k in range(3):
        lo, hi = k * third, (k + 1) * third if k < 2 else n
        entries[lo:hi, lo:hi] = within
    np.fill_diagonal(entries, 0.0)
    return sample_adjacency(entries, seed)


class TestSelectRankEcv:
    def test_single_candidate(self):
        g = planted_rank1(60, 0.2, seed=0)
        sel = select_rank_ecv(g, [2], seed=0)
        assert sel.chosen_r == 2

    def test_deterministic(self):
        g = planted_rank1(80, 0.25, seed=1)
        a = select_rank_ecv(g, [1, 2, 3], seed=5)
        b = select_rank_ecv(g, [1, 2, 3], seed=5)
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

    def test_a_fit_that_saw_the_held_out_edges_chooses_the_largest_rank(self, monkeypatch):
        """Guard against leakage into the folds: fold solves that return the
        full graph's eigenpairs have seen every held-out edge, so each added
        rank fits those edges better and the largest candidate wins.  A warm
        start or cache that lets the full graph into a fold fails here."""
        g = planted_sbm3(300, 0.5, 0.1, seed=200)
        cands = list(range(1, 11))  # the ranks decompose(g, "auto") chooses from
        assert select_rank_ecv(g, cands, seed=0).chosen_r == 3
        full = _eigs(g.to_csr(), max(cands), tol=1e-6, seed=0)
        monkeypatch.setattr("corex.coreid._eigs", lambda mat, r, tol, seed: full)
        assert select_rank_ecv(g, cands, seed=0).chosen_r == max(cands)

    def test_json_export(self):
        sel = RankSelection(chosen_r=2, candidates=(1, 2),
                            candidate_losses=(0.5, 0.2))
        payload = sel.to_json_dict()
        assert payload["chosen_r"] == 2 and payload["losses"]["2"] == 0.2


class TestPipeline:
    """coreid.decompose and coreid.select: the rank rule and the selection
    rules that identify and every bench replicate share."""

    def test_auto_is_ecv_over_ten_ranks_then_the_solve_on_one_seed(self):
        g = planted_sbm3(300, 0.5, 0.1, seed=200)
        dec, sel = decompose(g, "auto", seed=3)
        assert sel == select_rank_ecv(g, list(range(1, 11)), seed=3)
        solved = truncated_eigs(g, sel.chosen_r, seed=3)
        assert dec.rank == sel.chosen_r == 3
        assert np.array_equal(dec.eigenvalues, solved.eigenvalues)
        assert np.array_equal(dec.eigenvectors, solved.eigenvectors)

    @pytest.mark.parametrize("n", [2, 5, 11, 12])
    def test_auto_candidates_stay_below_n(self, n):
        g = random_graph(n, 0.8, seed=n)
        assert decompose(g, "auto", seed=0)[1].candidates == tuple(range(1, min(10, n - 1) + 1))

    def test_fixed_rank_has_no_selection(self):
        g = planted_sbm3(300, 0.5, 0.1, seed=200)
        dec, sel = decompose(g, 4, seed=1)
        assert sel is None
        assert np.array_equal(dec.eigenvectors, truncated_eigs(g, 4, seed=1).eigenvectors)
        with pytest.raises(DomainError):
            decompose(g, 300)

    @pytest.mark.parametrize("scores", [er, cfg])
    def test_select_applies_each_rule(self, scores):
        s = scores(np.linspace(0.01, 1.0, 100) ** 3)
        rules = {"threshold": threshold(s, 0.04, eps=0.2), "kmeans": kmeans_split(s),
                 7: identify_top_k(s, 7), 0: identify_top_k(s, 0)}
        for rule, expected in rules.items():
            part = select(s, rule, 0.04, eps=0.2)
            assert np.array_equal(part.labels, expected.labels) and part.cutoff == expected.cutoff
        with pytest.raises(DegenerateError):
            select(scores([1.0, 1.0, 1.0]), "kmeans", 0.5)


def fold_sample(g, seed, fold):
    """Replay fold `fold` of select_rank_ecv(..., seed=seed): its held-out
    edges, kept graph, sampled non-edges and non-edge weight."""
    edges = g.edge_array()
    keys = edges[:, 0] * g.n + edges[:, 1]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(fold,)))
    held, kept, non_edges, weight = _edge_split(g, edges, keys, rng)
    return held, kept, non_edges, weight


class TestEcvRecord:
    def test_fold_losses_average_to_candidate_losses(self):
        g = planted_sbm3(90, 0.5, 0.1, seed=3)
        sel = select_rank_ecv(g, [1, 2, 3, 4], seed=1)
        folds = np.array(sel.fold_losses)
        assert folds.shape == (3, 4)
        assert np.array_equal(folds.mean(axis=0), np.array(sel.candidate_losses))
        assert sel.fold_held_edges == (round(0.1 * g.m),) * 3
        assert all(0 < s <= 10 * round(0.1 * g.m) for s in sel.fold_non_edges)

    def test_json_keys_unchanged(self):
        g = planted_rank1(60, 0.2, seed=0)
        payload = select_rank_ecv(g, [1, 2], seed=0).to_json_dict()
        assert set(payload) == {"chosen_r", "losses", "folds", "holdout_fraction"}
        assert (payload["folds"], payload["holdout_fraction"]) == (3, 0.1)

    def test_sample_size(self):
        # ten draws per held-out edge, capped by the held-out share of non-edges
        sparse_g = planted_rank1(200, 0.02, seed=4)
        held, _, non_edges, _ = fold_sample(sparse_g, seed=0, fold=0)
        assert len(held) == round(0.1 * sparse_g.m)
        assert len(non_edges) <= 10 * len(held)
        assert len(non_edges) >= 9 * len(held)  # few of the draws hit edges
        # at density 0.9 a fold can accept no non-edge at all; its weight is then 0
        counts = []
        for seed in range(5, 12):
            dense_g = planted_rank1(40, 0.9, seed=seed)
            share = 0.1 * (40 * 39 // 2 - dense_g.m)
            _, _, non_edges, weight = fold_sample(dense_g, seed=0, fold=0)
            assert len(non_edges) <= round(share)
            assert weight == (share / len(non_edges) if len(non_edges) else 0.0)
            counts.append(len(non_edges))
        assert min(counts) == 0 < max(counts)  # both branches ran


class TestEcvEdgeCases:
    def check(self, g, cands):
        sel = select_rank_ecv(g, cands, seed=0)
        assert isinstance(sel, RankSelection)
        assert sel.chosen_r in sel.candidates == tuple(cands)
        assert np.all(np.isfinite(sel.fold_losses))
        assert np.all(np.isfinite(sel.candidate_losses))
        assert len(sel.fold_losses) == 3 == len(sel.fold_held_edges)
        return sel

    def test_edgeless_graph(self):
        sel = self.check(SparseGraph.from_pairs(6, []), [1, 2, 3])
        assert sel.fold_held_edges == (0, 0, 0) and min(sel.fold_non_edges) >= 1
        assert sel.candidate_losses == (0.0, 0.0, 0.0) and sel.chosen_r == 1  # tie: smallest

    def test_single_edge_graph(self):
        for n in (2, 3, 5, 12):
            self.check(SparseGraph.from_pairs(n, [(0, n - 1)]), list(range(1, n)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graph(self, n):
        g = SparseGraph.from_pairs(n, list(itertools.combinations(range(n), 2)))
        sel = self.check(g, list(range(1, n)))
        assert sel.fold_non_edges == (0, 0, 0)

    def test_sparse_graph_at_n_50000_stays_small(self):
        # the pair universe alone would be 1.25e9 pairs, about 20 GB
        n = 50_000
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, n, size=(120_000, 2))
        g = SparseGraph.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
        tracemalloc.start()
        try:
            sel = select_rank_ecv(g, [1, 2, 3], seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.chosen_r in (1, 2, 3)
        assert peak < 100 * 2 ** 20

    def test_pair_keys_beyond_int32_find_every_edge(self):
        # every edge lies among nodes 45,000..49,999, so each key i * n + j
        # passes 2**31 while the CSR arrays stay int32; a draw that hits an
        # edge must be rejected, not taken as a non-edge
        n = 50_000
        rng = np.random.default_rng(2)
        pairs = rng.integers(45_000, n, size=(200_000, 2))
        g = SparseGraph.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
        assert g.indices.dtype == np.int32 and g.edge_array().dtype == np.int64
        edge_keys = set((g.edge_array() @ [n, 1]).tolist())
        held, _, non_edges, _ = fold_sample(g, seed=0, fold=0)
        assert len(non_edges) < 10 * len(held)  # some draws did hit edges
        assert edge_keys.isdisjoint((non_edges @ [n, 1]).tolist())


class TestEcvLossOracle:
    """The sampled, reweighted loss against a dense brute force that uses
    the same eigenpairs, on graphs small enough to list every pair."""

    CASES = [(40, 0.2, 0.3), (50, 0.1, 0.2), (60, 0.3, 0.1), (30, 0.6, 0.3)]

    @pytest.mark.parametrize("n, p, holdout", CASES)
    def test_against_dense_brute_force(self, n, p, holdout, monkeypatch):
        monkeypatch.setattr("corex.coreid.ECV_HOLDOUT", holdout)
        cands = [1, 2, 3]
        z_scores = []
        for seed in range(8):
            g = random_graph(n, p, seed=50 + seed)
            sel = select_rank_ecv(g, cands, seed=seed)
            adj = g.to_csr().toarray()
            iu, ju = np.triu_indices(n, k=1)
            for fold in range(len(sel.fold_losses)):
                held, kept, non_edges, weight = fold_sample(g, seed, fold)
                # the held-out edges are edges of g and never of the kept graph
                kept_adj = kept.to_csr().toarray()
                assert np.all(adj[held[:, 0], held[:, 1]] == 1)
                assert not np.any(kept_adj[held[:, 0], held[:, 1]])
                assert np.array_equal(kept_adj + _sym(n, held), adj)
                assert np.all(adj[non_edges[:, 0], non_edges[:, 1]] == 0)
                assert np.all(non_edges[:, 0] < non_edges[:, 1])
                vals, vecs, _ = _eigs(kept.to_csr() * (1.0 / (1.0 - holdout)), max(cands),
                                      tol=ECV_TOL, seed=seed + 7919 * (fold + 1))
                losses = _fold_losses(vals, vecs, held, non_edges, weight, cands)
                assert np.array_equal(losses, sel.fold_losses[fold])
                share = holdout * (n * (n - 1) // 2 - g.m)
                assert weight == pytest.approx(share / len(non_edges), rel=1e-15)
                for ci, r in enumerate(cands):
                    pred = np.clip((vecs[:, :r] * vals[:r]) @ vecs[:, :r].T, 0.0, 1.0)
                    edge_sq = np.sum((pred[held[:, 0], held[:, 1]] - 1.0) ** 2)
                    sample_sq = pred[non_edges[:, 0], non_edges[:, 1]] ** 2
                    # the library's loss is the weighted mean over the scored pairs
                    exact = (edge_sq + weight * sample_sq.sum()) / (len(held) + share)
                    assert losses[ci] == pytest.approx(exact, rel=1e-12, abs=1e-15)
                    # brute force: the mean over every non-edge, all eligible
                    population = pred[iu, ju][adj[iu, ju] == 0] ** 2
                    dense = (edge_sq + share * population.mean()) / (len(held) + share)
                    se = share * population.std() / math.sqrt(len(non_edges)) / (len(held) + share)
                    assert abs(losses[ci] - dense) <= 5.0 * se + 1e-12
                    if se > 0:
                        z_scores.append((losses[ci] - dense) / se)
        # no systematic bias: the mean z-score over 24 folds x 3 ranks stays
        # within 5 standard errors of an unbiased estimator, even fully correlated
        assert abs(np.mean(z_scores)) <= 5.0 / math.sqrt(len(z_scores) / len(cands))

    def test_losses_span_several_pair_blocks(self):
        # more pairs than one block of _fold_losses: the blocks must add up
        rng = np.random.default_rng(3)
        n, r = 300, 5
        vecs = np.linalg.qr(rng.standard_normal((n, r)))[0]
        vals = np.array([40.0, -12.0, 9.0, 5.0, 3.0])
        held = rng.integers(0, n, size=(30_000, 2))
        non_edges = rng.integers(0, n, size=(50_000, 2))
        cands = [1, 3, 5]
        losses = _fold_losses(vals, vecs, held, non_edges, 2.5, cands)
        pred = [np.clip(np.sum(vecs[p[:, 0], :r] * vals[:r] * vecs[p[:, 1], :r], axis=1), 0, 1)
                for p in (held, non_edges) for r in cands]
        expected = [(np.sum((pred[k] - 1.0) ** 2) + 2.5 * np.sum(pred[3 + k] ** 2))
                    / (len(held) + 2.5 * len(non_edges)) for k in range(3)]
        assert losses == pytest.approx(expected, rel=1e-12)


def _sym(n, pairs):
    a = np.zeros((n, n))
    a[pairs[:, 0], pairs[:, 1]] = a[pairs[:, 1], pairs[:, 0]] = 1.0
    return a


def reference_scores_csv(path, values):
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,score\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def reference_partition_csv(path, labels, values):
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,is_core,score\n")
        for i, (flag, v) in enumerate(zip(labels, values)):
            fh.write(f"{i},{int(flag)},{float(v)!r}\n")


def reference_roc_csv(path, method, points):
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("method,fpr,tpr\n")
        for fpr, tpr in points:
            fh.write(f"{method},{float(fpr)!r},{float(tpr)!r}\n")


SPECIAL_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 3.0, 1e22,
                  12345678901234567.0, 0.1, 1e-300, 1.7976931348623157e308,
                  float("inf"), float("nan")]


class TestCsvWriters:
    """The scores, partition and ROC writers format the whole file at once;
    their bytes must equal the one-line-per-numpy-scalar reference."""

    def check(self, tmp_path, values, labels):
        values = np.asarray(values, dtype=np.float64)
        scores = er(values)
        write_scores_csv(tmp_path / "a.csv", scores)
        reference_scores_csv(tmp_path / "b.csv", values)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        part = CorePartition(labels=labels, cutoff=0.5)
        write_partition_csv(tmp_path / "c.csv", part, scores)
        reference_partition_csv(tmp_path / "d.csv", labels, values)
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
        # ROC points pair each value with the values in reverse order
        points = np.column_stack([values, values[::-1]])
        write_roc_csv(tmp_path / "e.csv", RocCurve(points=points, auc=0.5), "proposed_er")
        reference_roc_csv(tmp_path / "f.csv", "proposed_er", points)
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()

    def test_special_values(self, tmp_path):
        labels = np.arange(len(SPECIAL_VALUES)) % 3 == 0
        self.check(tmp_path, SPECIAL_VALUES, labels)

    def test_empty(self, tmp_path):
        self.check(tmp_path, [], np.zeros(0, dtype=bool))

    def test_integer_and_float32_inputs(self, tmp_path):
        ints = CoreScores(values=np.array([0, 1, 2]), model="er")
        write_scores_csv(tmp_path / "a.csv", ints)
        assert (tmp_path / "a.csv").read_text() == "node_id,score\n0,0.0\n1,1.0\n2,2.0\n"
        values = np.array([0.1, 1 / 3, 2.5], dtype=np.float32)
        scores = CoreScores(values=values, model="er")
        write_scores_csv(tmp_path / "b.csv", scores)
        reference_scores_csv(tmp_path / "c.csv", values)
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.booleans(),
                              st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES),
                                        st.integers(-2 ** 60, 2 ** 60).map(float))),
                    max_size=50))
    def test_matches_reference(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("csv")
        labels = np.array([flag for flag, _ in rows], dtype=bool)
        self.check(tmp_path, [v for _, v in rows], labels)
