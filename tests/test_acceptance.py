"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 3, 4 and 5
check exact-recovery and AUC-margin claims.  Each runs at a design point
where the signal supports its claim, and asserts that support from the
noiseless probability matrix P before it samples: every kept eigenvalue
of P clears a stated multiple of the detection scale sqrt(n * pbar)
(Baik, Ben Arous & Peche 2005), and for the exact-recovery claims a
classifier that knows P makes no error.  At the earlier pinned point
(graphon-1 core, ratio 3, density 0.02, n = 2000) these conditions fail.
The configuration-type half of criterion 4 still fails at its point.
docs/ledger.md records the numbers behind every design point.
"""

import os
import time

import numpy as np
import pytest

from conftest import (brute_force_coreness, dense_config_scores,
                      dense_er_scores, mann_whitney_auc, random_graph,
                      random_orthonormal)
from corex.cli import main as cli_main
from corex.coreid import identify_top_k, select_rank_ecv, threshold
from corex.evaluate import _replicate_seed, eigengap_profile, roc, run_experiment
from corex.graph import average_density, degrees, load_edge_list, sample_adjacency
from corex.baselines import coreness_scores, pagerank_scores
from corex.spectral import (SpectralDecomposition, config_scores, er_scores,
                            scores_from_truth, truncated_eigs)
from corex.synth import SynthConfig, generate_instance, graphon_by_number

# the whole gate takes minutes; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow

BALANCED = dict(n_core=1000, n_periphery=1000)
# Criteria 03 and 04 (exact recovery): graphon-1 core, rank 6.  A degree
# ratio of 16 at density 0.035 lifts graphon 1's weakest block to at least
# 2.2 sqrt(n * pbar) on every seed while no entry clips (max entry 0.95).
EXACT_POINT = dict(degree_ratio=16.0, target_density=0.035, **BALANCED)
# Criterion 05 (AUC margins) keeps ratio 1; only the density can lift the
# signal.  Graphon 1 at 0.1 puts its sixth eigenvalue at 1.4 sqrt(n * pbar)
# or more, the level graphon 2's third eigenvalue has at 0.02.
AUC_DENSITY = {1: 0.1, 2: 0.02}

# Preconditions, in units of the detection scale sqrt(n * pbar).  Exact
# recovery needs each kept eigenvector well aligned (squared overlap about
# 1 - 1/2^2 = 3/4 at multiple 2); an AUC margin needs each kept direction
# only to stand clear of the noise bulk.
DETECT_EXACT = 2.0
DETECT_AUC = 1.25
# Largest Bhattacharyya bound on the oracle's expected errors per instance.
ORACLE_MAX = 0.1


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
          + (f" -- {detail}" if detail else ""))
    return ok


def magnitude_sorted(lam, u):
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], u[:, order]


def off_diagonal_mean(p):
    """pbar: the mean entry of P off its diagonal."""
    return float(p.sum() / (p.size - len(p)))


def detection_margin(p, rank, vals=None):
    """Smallest kept |eigenvalue| of P over sqrt(n * pbar)."""
    if vals is None:
        vals = np.linalg.eigvalsh(p)
    kept = np.sort(np.abs(vals))[::-1][rank - 1]
    return float(kept / np.sqrt(len(p) * off_diagonal_mean(p)))


def noiseless_signal(inst, rank, model):
    """Precondition quantities of one instance, from its noiseless P alone.

    detect: detection_margin(P, rank).
    oracle: Bhattacharyya bound on the summed error rates of the
        likelihood-ratio tests that know P and decide, for each core node,
        between its own row and the row the periphery model would give it
        (the periphery level under ER, d_i d_j / sum(d) under config).
    topk, threshold: whether these rules, applied to the scores of the
        rank-r truncation of P itself, recover the core exactly.
    """
    p, truth = inst.assembly.dense(), inst.truth
    pbar = off_diagonal_mean(p)
    vals, vecs = magnitude_sorted(*np.linalg.eigh(p))
    dec = SpectralDecomposition(vals[:rank], vecs[:, :rank])
    deg = p.sum(axis=1)
    core_idx = np.nonzero(truth)[0]
    rows = p[core_idx]
    if model == "er":
        peri = np.nonzero(~truth)[0]
        alt = np.full_like(rows, p[peri[0], peri[1]])
        scores = er_scores(dec)
    else:
        alt = np.outer(deg[core_idx], deg) / deg.sum()
        scores = config_scores(dec, deg)
    affinity = np.sqrt(rows * alt) + np.sqrt((1.0 - rows) * (1.0 - alt))
    affinity[np.arange(core_idx.size), core_idx] = 1.0  # no self-loops
    distance = -np.log(affinity).sum(axis=1)
    return {
        "detect": detection_margin(p, rank, vals),
        "oracle": float(np.exp(-distance).sum()),
        "topk": bool(np.array_equal(identify_top_k(scores, int(truth.sum())).labels,
                                    truth)),
        "threshold": bool(np.array_equal(threshold(scores, pbar).labels, truth)),
    }


def supports_exact(sig, rule):
    return (sig["detect"] >= DETECT_EXACT and sig["oracle"] <= ORACLE_MAX
            and sig[rule])


def describe(sigs):
    return (f"min |lam_r|/sqrt(n pbar) {min(s['detect'] for s in sigs):.2f}, "
            f"max oracle bound {max(s['oracle'] for s in sigs):.2g}")


def test_criterion_01_gram_trick_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        r = int(rng.integers(1, 11))
        u = random_orthonormal(n, r, rng)
        lam = rng.standard_normal(r) * rng.uniform(1, 20)
        lam, u = magnitude_sorted(lam, u)
        deg = rng.integers(1, 30, size=n).astype(float)
        dec = SpectralDecomposition(lam, u)
        for values, oracle in (
            (er_scores(dec).values, dense_er_scores(u, lam)),
            (config_scores(dec, deg).values, dense_config_scores(u, lam, deg)),
        ):
            rel = np.abs(values - oracle) / np.maximum(np.abs(oracle), 1e-30)
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10
    assert report(1, "Gram-trick scores match dense brute force", ok,
                  f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_analytic_periphery_score():
    t0 = time.time()
    worst = 0.0
    for n, d in ((10, 3.0), (100, 12.0)):
        entries = np.full((n, n), d / (n - 1))
        np.fill_diagonal(entries, 0.0)
        values = scores_from_truth(entries, "config").values
        expected = np.sqrt((n - 1) / n) * d / ((n - 1) * d)
        worst = max(worst, float(np.abs(values - expected).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1
    assert report(2, "Configuration periphery score matches closed form", ok,
                  f"worst abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_exact_recovery_topk():
    hits = 0
    aucs, sigs = [], []
    elapsed = 0.0
    for s in range(20):
        cfg = SynthConfig(graphon=graphon_by_number(1), periphery="er", seed=s, **EXACT_POINT)
        t0 = time.time()
        inst = generate_instance(cfg)
        elapsed += time.time() - t0
        sig = noiseless_signal(inst, 6, "er")
        sigs.append(sig)
        assert supports_exact(sig, "topk"), (
            f"[criterion 03] seed {s}: the noiseless P no longer supports "
            f"exact recovery: {sig}")
        t0 = time.time()
        g = inst.sample()
        scores = er_scores(truncated_eigs(g, 6, seed=s))
        part = identify_top_k(scores, cfg.n_core)
        elapsed += time.time() - t0
        hits += int(np.array_equal(part.labels, inst.truth))
        aucs.append(roc(scores.values, inst.truth).auc)
    ok = hits >= 18 and elapsed < 300
    assert report(
        3, "Exact top-k recovery (graphon 1, ratio 16, density 0.035, rank 6)", ok,
        f"{hits}/20 exact, mean AUC {np.mean(aucs):.4f}, {elapsed:.0f}s; "
        f"precondition: {describe(sigs)}")


def test_criterion_04_threshold_selection():
    er_hits = cfg_hits = 0
    er_nhats, cfg_nhats, er_sigs, cfg_sigs = [], [], [], []
    cfg_fp = cfg_fn = 0
    elapsed = 0.0
    for s in range(20):
        cfg_er = SynthConfig(graphon=graphon_by_number(1), periphery="er", seed=s, **EXACT_POINT)
        t0 = time.time()
        inst = generate_instance(cfg_er)
        elapsed += time.time() - t0
        sig = noiseless_signal(inst, 6, "er")
        er_sigs.append(sig)
        assert supports_exact(sig, "threshold"), (
            f"[criterion 04] ER seed {s}: the noiseless P no longer supports "
            f"exact recovery: {sig}")
        t0 = time.time()
        g = inst.sample()
        part = threshold(er_scores(truncated_eigs(g, 6, seed=s)), average_density(g))
        elapsed += time.time() - t0
        er_nhats.append(part.n_core)
        er_hits += int(part.n_core == cfg_er.n_core)

        cfg_cf = SynthConfig(graphon=graphon_by_number(1), periphery="config", seed=s,
                             **EXACT_POINT)
        t0 = time.time()
        inst = generate_instance(cfg_cf)
        elapsed += time.time() - t0
        # reported, not asserted: for graphon 1 at n = 2000 the config oracle
        # bound stays above ORACLE_MAX even at the largest unclipped core
        # scale, whatever the ratio (see ledger)
        cfg_sigs.append(noiseless_signal(inst, 6, "config"))
        t0 = time.time()
        g = inst.sample()
        part = threshold(config_scores(truncated_eigs(g, 6, seed=s), degrees(g)),
                         average_density(g))
        elapsed += time.time() - t0
        cfg_nhats.append(part.n_core)
        cfg_hits += int(part.n_core == cfg_cf.n_core)
        cfg_fp += int(np.count_nonzero(part.labels & ~inst.truth))
        cfg_fn += int(np.count_nonzero(~part.labels & inst.truth))
    ok = er_hits >= 18 and cfg_hits >= 18 and elapsed < 600
    assert report(
        4, "Threshold rules recover the exact core size (ratio 16, density 0.035)",
        ok,
        f"ER {er_hits}/20 (median N-hat {int(np.median(er_nhats))}; "
        f"{describe(er_sigs)}), "
        f"config {cfg_hits}/20 (N-hat {min(cfg_nhats)}..{max(cfg_nhats)}, "
        f"{cfg_fp} false positives and {cfg_fn} false negatives over 20 runs; "
        f"{describe(cfg_sigs)}), {elapsed:.0f}s; the config oracle bound "
        f"stays above {ORACLE_MAX} up to the clipping limit (see ledger)")


def test_criterion_05_equal_density_auc_margins():
    details = []
    ok = True
    elapsed = 0.0
    baselines = ("degree", "pagerank", "eigenvector", "local_cc", "kcore")
    for gnum, rank in ((1, 6), (2, 3)):
        cfg = SynthConfig(graphon=graphon_by_number(gnum), periphery="er", degree_ratio=1.0,
                          seed=500 + gnum, target_density=AUC_DENSITY[gnum], **BALANCED)
        detect = []
        for rep in range(20):
            rep_cfg = SynthConfig(graphon=cfg.graphon, periphery="er", degree_ratio=1.0,
                                  seed=_replicate_seed(cfg.seed, rep),
                                  target_density=cfg.target_density, **BALANCED)
            inst = generate_instance(rep_cfg)
            detect.append(detection_margin(inst.assembly.dense(), rank))
        assert min(detect) >= DETECT_AUC, (
            f"[criterion 05] g{gnum}: the noiseless P no longer supports the "
            f"AUC claim: min |lam_r|/sqrt(n pbar) {min(detect):.2f}")
        t0 = time.time()
        res = run_experiment(cfg, methods=("proposed_er",) + baselines, replicates=20,
                             rank=rank)
        elapsed += time.time() - t0
        proposed = res.mean_auc("proposed_er")
        best_base, best_auc = max(((m, res.mean_auc(m)) for m in baselines),
                                  key=lambda kv: kv[1])
        margin = proposed - best_auc
        degree_auc = res.mean_auc("degree")
        ok = ok and margin >= 0.1 and degree_auc <= 0.6
        details.append(f"g{gnum} (density {cfg.target_density}): proposed "
                       f"{proposed:.3f}, best baseline {best_base} "
                       f"{best_auc:.3f} (margin {margin:+.3f}), degree "
                       f"{degree_auc:.3f}, min |lam_r|/sqrt(n pbar) "
                       f"{min(detect):.2f}")
    ok = ok and elapsed < 1200
    assert report(5, "Equal-density AUC dominance by >= 0.1", ok,
                  "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_06_eigengap_profile():
    t0 = time.time()
    n = 300
    entries = np.full((n, n), 0.05)
    third = n // 3
    for k, v in enumerate((0.9, 0.7, 0.5)):
        entries[k * third:(k + 1) * third, k * third:(k + 1) * third] = v
    np.fill_diagonal(entries, 0.0)
    records = eigengap_profile(entries, [0, 500, 1000, 2000, 4000], periphery_level=0.02)
    gaps = [rec["normalized_gap"] for rec in records]
    elapsed = time.time() - t0
    ok = gaps[0] > 0 and all(a > b for a, b in zip(gaps, gaps[1:])) and elapsed < 120
    assert report(6, "Normalized 3-4 eigengap decays along the periphery sweep",
                  ok, f"gaps {[round(v, 4) for v in gaps]}, {elapsed:.0f}s")


def test_criterion_07_roc_equals_mann_whitney():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 201))
        if trial % 2 == 0:
            values = rng.integers(0, 6, n).astype(float)  # heavy ties
        else:
            values = rng.random(n)
        truth = np.zeros(n, dtype=bool)
        truth[rng.permutation(n)[:int(rng.integers(1, n))] if n > 1 else [0]] = True
        if not truth.any() or truth.all():
            truth[0] = True
            truth[-1] = False
        auc = roc(values, truth).auc
        worst = max(worst, abs(auc - mann_whitney_auc(values, truth)))
    ok = worst <= 1e-12
    assert report(7, "Trapezoid AUC equals pairwise Mann-Whitney statistic",
                  ok, f"worst abs diff {worst:.2e}")


def test_criterion_08_eigensolver_matches_dense():
    rng = np.random.default_rng(808)
    t0 = time.time()
    worst_val, worst_angle = 0.0, 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(50, 301))
        p = float(rng.uniform(0.05, 0.5))
        r = int(rng.integers(1, 9))
        g = random_graph(n, p, seed=int(rng.integers(0, 10 ** 6)))
        if g.m == 0:
            continue
        checked += 1
        dec = truncated_eigs(g, r, seed=checked)
        vals, vecs = np.linalg.eigh(g.to_csr().toarray())
        order = np.argsort(-np.abs(vals), kind="stable")
        ref_vals, ref_vecs = vals[order[:r]], vecs[:, order[:r]]
        scale = max(1.0, abs(ref_vals[0]))
        worst_val = max(worst_val,
                        float(np.abs(dec.eigenvalues - ref_vals).max()) / scale)
        gap = abs(vals[order[r - 1]]) - abs(vals[order[r]])
        if gap > 1e-6:
            sigma = np.linalg.svd(ref_vecs.T @ dec.eigenvectors, compute_uv=False)
            worst_angle = max(worst_angle,
                              float(np.arccos(np.clip(sigma.min(), -1, 1))))
    elapsed = time.time() - t0
    ok = worst_val <= 1e-8 and worst_angle <= 1e-6
    assert report(8, "Truncated eigensolver matches the dense solver", ok,
                  f"worst value err {worst_val:.2e}, worst angle "
                  f"{worst_angle:.2e}, {elapsed:.0f}s")


def test_criterion_09_baseline_correctness():
    rng = np.random.default_rng(909)
    coreness_ok = True
    for _ in range(50):
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.05, 0.4))
        g = random_graph(n, p, seed=int(rng.integers(0, 10 ** 6)))
        if not np.array_equal(coreness_scores(g), brute_force_coreness(g)):
            coreness_ok = False
            break
    star = load_edge_list(["0 1", "0 2", "0 3"])
    pr = pagerank_scores(star)
    star_ok = (abs(pr[0] - 71 / 148) <= 1e-6
               and np.all(np.abs(pr[1:] - 77 / 444) <= 1e-6))
    sums_ok = True
    for s in range(5):
        g = random_graph(40, 0.15, seed=40 + s)
        sums_ok = sums_ok and abs(pagerank_scores(g).sum() - 1.0) <= 1e-10
    ok = coreness_ok and star_ok and sums_ok
    assert report(9, "Coreness matches brute-force peeling; PageRank exact",
                  ok, f"coreness {coreness_ok}, star {star_ok}, sums {sums_ok}")


def test_criterion_10_ecv_rank_selection():
    t0 = time.time()
    hits1 = 0
    for s in range(20):
        entries = np.full((300, 300), 0.1)
        np.fill_diagonal(entries, 0.0)
        g = sample_adjacency(entries, seed=1000 + s)
        hits1 += int(select_rank_ecv(g, [1, 2, 3, 4], seed=s).chosen_r == 1)
    hits3 = 0
    for s in range(20):
        entries = np.full((300, 300), 0.1)
        for k in range(3):
            lo, hi = k * 100, (k + 1) * 100
            entries[lo:hi, lo:hi] = 0.5
        np.fill_diagonal(entries, 0.0)
        g = sample_adjacency(entries, seed=2000 + s)
        hits3 += int(select_rank_ecv(g, [1, 2, 3, 4, 5, 6], seed=s).chosen_r == 3)
    elapsed = time.time() - t0
    ok = hits1 >= 18 and hits3 >= 18
    assert report(10, "ECV recovers the planted rank", ok,
                  f"rank-1 {hits1}/20, rank-3 {hits3}/20, {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path):
    def snapshot(directory):
        out = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
        return out

    def run_twice(flags, out_dir, extra_second=None):
        assert cli_main(flags + ["--out-dir", str(out_dir)]) == 0
        first = snapshot(out_dir)
        assert cli_main((extra_second or flags) + ["--out-dir", str(out_dir)]) == 0
        return first, snapshot(out_dir)

    ok = True
    notes = []
    gen = ["generate", "--graphon", "1", "--n-core", "30", "--n-periphery", "30",
           "--density", "0.05", "--ratio", "2", "--seed", "3"]
    a, b = run_twice(gen, tmp_path / "gen")
    ok &= a == b
    notes.append(f"generate {'ok' if a == b else 'DIFFERS'}")
    # --threads is gone: the flag is a usage error, not an echo in run.json
    with pytest.raises(SystemExit) as exc:
        cli_main(gen + ["--threads", "4", "--out-dir", str(tmp_path / "gen_t")])
    rejected = exc.value.code == 2
    ok &= rejected
    notes.append(f"threads {'rejected' if rejected else 'ACCEPTED'}")

    edges = str(tmp_path / "gen" / "edges.tsv")
    ident = ["identify", "--input", edges, "--model", "er", "--rank", "3",
             "--select", "threshold", "--seed", "1"]
    a, b = run_twice(ident, tmp_path / "ident")
    ok &= a == b
    notes.append(f"identify {'ok' if a == b else 'DIFFERS'}")

    bench = ["bench", "--graphon", "1", "--periphery", "er", "--n-core", "25",
             "--n-periphery", "25", "--ratios", "2", "--methods", "degree,kcore",
             "--replicates", "2", "--density", "0.08", "--seed", "5"]
    a, b = run_twice(bench, tmp_path / "bench")
    ok &= a == b
    notes.append(f"bench {'ok' if a == b else 'DIFFERS'}")

    diag = ["diagnose", "--truth-p", str(tmp_path / "gen" / "meta.json"),
            "--rank", "3", "--seed", "2"]
    a, b = run_twice(diag, tmp_path / "diag")
    ok &= a == b
    notes.append(f"diagnose {'ok' if a == b else 'DIFFERS'}")
    assert report(11, "CLI reruns are byte-identical", ok, ", ".join(notes))
