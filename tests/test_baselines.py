import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (brute_force_coreness, dense_eigenvector_centrality, local_cc_product,
                      random_graph)
from corex import baselines
from corex.baselines import (coreness_scores, degree_scores, eigenvector_scores,
                             local_cc_scores, pagerank_scores)
from corex.errors import DomainError
from corex.graph import SparseGraph, load_edge_list
from corex.synth import SynthConfig, generate_instance, graphon_by_number

# hand-solved star fixed point (fractions 71/148 and 77/444)
STAR_CENTER = 71 / 148
STAR_LEAF = 77 / 444

TRIANGLE = ["0 1", "1 2", "0 2"]
TRIANGLE_PENDANT = ["0 1", "1 2", "0 2", "2 3"]
STAR = ["0 1", "0 2", "0 3"]
PATH3 = ["0 1", "1 2"]


class TestDegree:
    def test_star(self):
        g = load_edge_list(STAR)
        assert list(degree_scores(g)) == [3, 1, 1, 1]

    def test_empty(self):
        g = SparseGraph.from_pairs(4, [])
        assert np.all(degree_scores(g) == 0)

    def test_triangle_pendant(self):
        g = load_edge_list(TRIANGLE_PENDANT)
        assert list(degree_scores(g)) == [2, 2, 3, 1]


class TestPagerank:
    def test_triangle_uniform(self):
        values = pagerank_scores(load_edge_list(TRIANGLE))
        assert np.allclose(values, 1 / 3, atol=1e-10)

    def test_star_hand_solved(self):
        values = pagerank_scores(load_edge_list(STAR))
        assert values[0] == pytest.approx(STAR_CENTER, abs=1e-6)
        assert np.allclose(values[1:], STAR_LEAF, atol=1e-6)

    def test_single_edge(self):
        values = pagerank_scores(load_edge_list(["0 1"]))
        assert np.allclose(values, 0.5, atol=1e-10)

    def test_sums_to_one(self):
        g = random_graph(60, 0.1, seed=1)
        values = pagerank_scores(g)
        assert abs(values.sum() - 1.0) <= 1e-10
        assert np.all(values > 0)

    def test_dangling_nodes(self):
        g = load_edge_list(["n 4", "0 1"])  # nodes 2, 3 isolated
        values = pagerank_scores(g)
        assert abs(values.sum() - 1.0) <= 1e-10


class TestEigenvector:
    def test_triangle(self):
        values = eigenvector_scores(load_edge_list(TRIANGLE))
        assert np.allclose(values, 1 / np.sqrt(3), atol=1e-8)

    def test_single_edge(self):
        values = eigenvector_scores(load_edge_list(["0 1"]))
        assert np.allclose(values, 1 / np.sqrt(2), atol=1e-8)

    def test_path3_matches_dense_solve(self):
        values = eigenvector_scores(load_edge_list(PATH3))
        assert np.allclose(values, [0.5, 1 / np.sqrt(2), 0.5], atol=1e-8)

    def test_needs_an_edge(self):
        with pytest.raises(DomainError):
            eigenvector_scores(SparseGraph.from_pairs(3, []))

    def test_unit_norm_nonnegative(self):
        g = random_graph(40, 0.15, seed=2)
        values = eigenvector_scores(g)
        assert values.min() >= 0
        assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-10)


@st.composite
def repeated_components(draw):
    """Disjoint copies of one random connected graph on 2..7 nodes (a
    random tree plus extra edges), plus 0..3 isolated nodes, with the
    node ids shuffled; copies share the leading eigenvalue."""
    size = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, size)}
    extra = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                          max_size=12))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    copies = draw(st.integers(1, 3))
    n = copies * size + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n)))
    return SparseGraph.from_pairs(n, [(ids[c * size + a], ids[c * size + b])
                                      for c in range(copies) for a, b in edges])


@given(repeated_components())
def test_eigenvector_matches_dense_projection(g):
    assert np.allclose(eigenvector_scores(g), dense_eigenvector_centrality(g),
                       rtol=0.0, atol=1e-8)


class TestLocalCC:
    def test_triangle(self):
        assert np.allclose(local_cc_scores(load_edge_list(TRIANGLE)), 1.0)

    def test_path(self):
        assert np.all(local_cc_scores(load_edge_list(PATH3)) == 0.0)

    def test_k4_minus_edge(self):
        # edges: K4 without 2-3; nodes 0,1 have degree 3 and 2 triangles
        g = load_edge_list(["0 1", "0 2", "0 3", "1 2", "1 3"])
        values = local_cc_scores(g)
        assert values[0] == pytest.approx(2 / 3)
        assert values[1] == pytest.approx(2 / 3)
        assert values[2] == pytest.approx(1.0)
        assert values[3] == pytest.approx(1.0)

    def test_triangle_counts_against_enumeration(self):
        g = random_graph(30, 0.3, seed=5)
        values = local_cc_scores(g)
        dense = g.to_csr().toarray()
        for i in range(g.n):
            nbrs = g.adjacency[i]
            tri = 0
            for ai in range(len(nbrs)):
                for bi in range(ai + 1, len(nbrs)):
                    tri += dense[nbrs[ai], nbrs[bi]]
            d = len(nbrs)
            expect = 2 * tri / (d * (d - 1)) if d >= 2 else 0.0
            assert values[i] == pytest.approx(expect, abs=1e-12)


@st.composite
def tie_heavy_graphs(draw):
    """Cliques, stars and random pieces over a few drawn nodes, the rest left
    isolated: many equal degrees, so the (degree, id) order turns on its ids."""
    n = draw(st.integers(0, 24))
    pairs = []
    for _ in range(draw(st.integers(0, 4)) if n >= 2 else 0):
        nodes = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=8, unique=True))
        kind = draw(st.sampled_from(["clique", "star", "random"]))
        if kind == "clique":
            pairs += itertools.combinations(nodes, 2)
        elif kind == "star":
            pairs += [(nodes[0], v) for v in nodes[1:]]
        else:
            pairs += draw(st.lists(st.sampled_from(list(itertools.combinations(nodes, 2))),
                                   max_size=12))
    return SparseGraph.from_pairs(n, pairs)


def bench_graph(seed: int) -> SparseGraph:
    """One graph of `corex bench`'s default design point: graphon 1, configuration
    periphery, degree ratio 3, density 0.02, a balanced 1000/1000 split."""
    cfg = SynthConfig(n_core=1000, n_periphery=1000, periphery="config", degree_ratio=3.0,
                      target_density=0.02, seed=seed)
    return generate_instance(graphon_by_number(1), cfg).sample()


@given(tie_heavy_graphs())
@example(SparseGraph.from_pairs(0, []))
@example(SparseGraph.from_pairs(1, []))
@example(SparseGraph.from_pairs(2, []))
@example(SparseGraph.from_pairs(2, [(0, 1)]))
def test_local_cc_matches_dense_cube(g):
    # triangles through i = diag(A^3) / 2, from the dense matrix
    a = g.to_csr().toarray()
    tri = np.diag(a @ a @ a) / 2.0
    deg = a.sum(axis=1)
    expect = np.zeros(g.n)
    eligible = deg >= 2
    denom = deg * (deg - 1.0)
    expect[eligible] = 2.0 * tri[eligible] / denom[eligible]
    assert np.array_equal(local_cc_scores(g), expect)


class TestLocalCCAtScale:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_design_equals_product(self, seed):
        g = bench_graph(seed)
        assert np.array_equal(local_cc_scores(g), local_cc_product(g))

    def test_row_blocks_equal_one_product(self, monkeypatch):
        g = random_graph(80, 0.3, seed=4)
        whole = local_cc_scores(g)
        monkeypatch.setattr(baselines, "_PRODUCT_BLOCK", 40)  # a block of a row or two
        assert np.array_equal(local_cc_scores(g), whole)
        assert np.array_equal(whole, local_cc_product(g))

    def test_peak_memory_below_half_the_product(self):
        # the half adjacency's products in blocks, never the whole A @ A
        g = bench_graph(1)
        adj = g.to_csr()
        square = adj @ adj
        square_bytes = square.data.nbytes + square.indices.nbytes + square.indptr.nbytes
        del adj, square
        tracemalloc.start()
        try:
            local_cc_scores(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < square_bytes / 2


class TestCoreness:
    def test_triangle_pendant(self):
        values = coreness_scores(load_edge_list(TRIANGLE_PENDANT))
        assert list(values) == [2, 2, 2, 1]

    def test_tree(self):
        g = load_edge_list(["0 1", "1 2", "1 3", "3 4"])
        assert np.all(coreness_scores(g) == 1)

    def test_k5(self):
        edges = [f"{i} {j}" for i in range(5) for j in range(i + 1, 5)]
        assert np.all(coreness_scores(load_edge_list(edges)) == 4)

    def test_matches_brute_force(self):
        for s in range(8):
            g = random_graph(30, 0.12, seed=50 + s)
            fast = coreness_scores(g)
            slow = brute_force_coreness(g)
            assert np.array_equal(fast, slow)

    def test_thresholded_set_is_k_core(self):
        g = random_graph(40, 0.15, seed=9)
        values = coreness_scores(g)
        for k in range(int(values.max()) + 1):
            keep = values >= k
            # every retained node has at least k retained neighbors
            for v in np.nonzero(keep)[0]:
                assert np.sum(keep[g.adjacency[v]]) >= k


class TestPermutationEquivariance:
    def test_all_methods(self):
        g = random_graph(25, 0.25, seed=3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.n)
        # relabel: node i becomes perm[i]
        relabeled = SparseGraph.from_pairs(
            g.n, [(perm[i], perm[j]) for i, j in g.edge_array()])
        for scorer, tol in ((degree_scores, 0), (local_cc_scores, 1e-12),
                            (coreness_scores, 0), (pagerank_scores, 1e-9)):
            base = scorer(g)
            mapped = scorer(relabeled)
            assert np.allclose(mapped[perm], base, atol=tol)
