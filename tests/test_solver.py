"""The ARPACK-backed eigensolve: its residual, its failure mapping, and a
graph with a clustered bulk edge that it must solve."""

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import random_graph
from corex.cli import main
from corex.coreid import select_rank_ecv
from corex.errors import ConvergenceError
from corex.graph import sample_adjacency, write_edge_list
from corex.spectral import truncated_eigs
from corex.synth import SynthConfig, generate_instance, graphon_by_number


def explicit_residual(g, dec):
    a = g.to_csr()
    u = dec.eigenvectors
    return float(np.max(np.linalg.norm(a @ u - u * dec.eigenvalues, axis=0)))


def test_decomposition_carries_residual():
    g = random_graph(120, 0.15, seed=4)
    dec = truncated_eigs(g, 5, seed=2)
    assert dec.residual == pytest.approx(explicit_residual(g, dec), rel=1e-6, abs=1e-13)
    assert dec.residual <= 1e-8 * abs(dec.eigenvalues[0])


def test_dense_path_residual():
    g = random_graph(6, 0.8, seed=1)
    dec = truncated_eigs(g, 5, seed=0)  # r >= n - 1: dense eigh
    assert dec.residual <= 1e-8 * max(1.0, abs(dec.eigenvalues[0]))


def test_clustered_bulk_edge_graph_converges():
    # graphon 2, n = 8000: |lambda_4..lambda_6| = 16.37, 16.24, 16.17 sit
    # at the bulk edge; the generator call is `corex generate --graphon 2
    # --n-core 1000 --n-periphery 7000 --periphery config --density 0.005
    # --ratio 3 --seed 3757552657`
    cfg = SynthConfig(n_core=1000, n_periphery=7000, periphery="config",
                      degree_ratio=3.0, target_density=0.005, seed=3757552657)
    instance = generate_instance(graphon_by_number(2), cfg)
    g = sample_adjacency(instance.p, instance.adjacency_seed)
    del instance
    dec = truncated_eigs(g, 6, seed=0)
    assert explicit_residual(g, dec) <= 1e-8 * abs(dec.eigenvalues[0])


@pytest.fixture(params=[0, 1], ids=["none-converged", "one-converged"])
def arpack_fails(request, monkeypatch):
    """Make every ARPACK call fail, reporting `request.param` converged pairs."""
    def fail(mat, k, **kwargs):
        vals, vecs = np.linalg.eigh(mat.toarray())
        keep = np.argsort(-np.abs(vals))[:request.param]
        raise ArpackNoConvergence("no convergence", vals[keep], vecs[:, keep])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)


def test_arpack_failure_is_convergence_error(arpack_fails):
    g = random_graph(60, 0.2, seed=3)
    with pytest.raises(ConvergenceError) as exc:
        truncated_eigs(g, 3, seed=0)
    assert np.isfinite(exc.value.residual)


def test_arpack_failure_exits_4(arpack_fails, tmp_path):
    edges = tmp_path / "edges.tsv"
    write_edge_list(random_graph(60, 0.2, seed=3), str(edges))
    code = main(["identify", "--input", str(edges), "--rank", "3",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 4


def test_ecv_arpack_failure_is_convergence_error(arpack_fails):
    g = random_graph(60, 0.2, seed=3)
    with pytest.raises(ConvergenceError) as exc:
        select_rank_ecv(g, [1, 2, 3], seed=0)
    assert np.isfinite(exc.value.residual)


def test_ecv_arpack_failure_exits_4(arpack_fails, tmp_path, capsys):
    edges, out = tmp_path / "edges.tsv", tmp_path / "out"
    write_edge_list(random_graph(60, 0.2, seed=3), str(edges))
    code = main(["identify", "--input", str(edges), "--rank", "auto", "--out-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: eigensolver did not converge")
    assert not (out / "scores.csv").exists() and not (out / "partition.csv").exists()
