"""Rank-engine contracts: oracles first, then invariants and error paths."""
from itertools import permutations

import numpy as np
import pytest

from gmrank.graph import DirectedGraph, reverse
from gmrank.rank import (ConvergenceError, GoogleParams, RankIndex, cheirank,
                         dense_google_matrix, dense_stationary, google_matrix,
                         pagerank, rank_indices, two_d_rank)

from conftest import random_graph


def solve_stationary(matrix):
    """Independent oracle: direct linear solve of P = GP with sum(P) = 1."""
    n = matrix.shape[0]
    system = matrix - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def index_from(positions):
    pos = np.asarray(positions, dtype=np.int64)
    return RankIndex(ordering=np.argsort(pos, kind="stable"), position=pos)


class TestPagerank:
    def test_all_dangling_is_uniform(self):
        g = DirectedGraph.from_edges(3, [], [])
        p = pagerank(g).probabilities
        assert np.allclose(p, 1 / 3, atol=1e-12)

    def test_ring_is_uniform(self, ring_graph):
        p = pagerank(ring_graph).probabilities
        assert np.allclose(p, 1 / ring_graph.node_count, atol=1e-10)

    def test_two_node_closed_form(self, two_node_graph):
        # frozen from the dense linear solve of the 2x2 system
        expected = solve_stationary(dense_google_matrix(two_node_graph, 0.85))
        got = pagerank(two_node_graph).probabilities
        assert np.allclose(got, expected, atol=1e-8)
        assert got[0] == pytest.approx(0.3508772, abs=1e-6)
        assert got[1] == pytest.approx(0.6491228, abs=1e-6)

    def test_matches_linear_solve_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_graph(rng, 50, 0.06, dangling_tail=5)
            got = pagerank(g).probabilities
            expected = solve_stationary(dense_google_matrix(g, 0.85))
            assert np.abs(got - expected).sum() < 1e-9

    def test_sum_and_floor(self):
        rng = np.random.default_rng(5)
        for alpha in (0.5, 0.85, 0.95):
            g = random_graph(rng, 80, 0.03, dangling_tail=8)
            p = pagerank(g, GoogleParams(alpha=alpha)).probabilities
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= (1 - alpha) / g.node_count - 1e-12

    def test_final_residual_respects_contraction(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_graph(rng, 70, 0.04, dangling_tail=7)
            vector = pagerank(g, GoogleParams())
            assert vector.residual <= 2 * 0.85**vector.iterations_used + 1e-15

    def test_residual_contraction_bound(self, two_node_graph):
        # independently replay the iteration with the dense matrix
        rng = np.random.default_rng(31)
        for g in (two_node_graph, random_graph(rng, 40, 0.08, dangling_tail=4)):
            alpha = 0.85
            matrix = dense_google_matrix(g, alpha)
            p = np.full(g.node_count, 1.0 / g.node_count)
            for t in range(1, 60):
                new_p = matrix @ p
                residual = np.abs(new_p - p).sum()
                assert residual <= 2 * alpha**t + 1e-15
                p = new_p

    def test_convergence_error_carries_last_iterate(self, two_node_graph):
        with pytest.raises(ConvergenceError) as exc_info:
            pagerank(two_node_graph, GoogleParams(tol=1e-12, max_iter=2))
        err = exc_info.value
        assert err.vector.shape == (2,)
        assert err.residual > 1e-12
        assert err.iterations == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            pagerank(DirectedGraph.from_edges(0, [], []))

    def test_deterministic_rerun(self):
        g = random_graph(np.random.default_rng(77), 60, 0.05)
        a = pagerank(g).probabilities
        b = pagerank(g).probabilities
        assert np.array_equal(a, b)


class TestCheirank:
    def test_equals_pagerank_of_reverse_bitwise(self):
        g = random_graph(np.random.default_rng(100), 100, 0.03, dangling_tail=10)
        assert np.array_equal(cheirank(g).probabilities,
                              pagerank(reverse(g)).probabilities)

    def test_two_node_mirror(self, two_node_graph):
        p = cheirank(two_node_graph).probabilities
        assert p[0] == pytest.approx(0.6491228, abs=1e-6)
        assert p[1] == pytest.approx(0.3508772, abs=1e-6)

    def test_symmetric_graph_equal_ranks(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        g = DirectedGraph.from_edges(3, [e[0] for e in edges], [e[1] for e in edges])
        assert np.allclose(cheirank(g).probabilities, pagerank(g).probabilities,
                           atol=1e-9)

    def test_algorithm_tag(self, two_node_graph):
        assert cheirank(two_node_graph).algorithm == "cheirank"


class TestRelabelling:
    def test_permuting_nodes_permutes_vectors_and_orderings(self):
        rng = np.random.default_rng(1405)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(5, 50))
            g = random_graph(rng, n, 0.15)
            vectors = [f(g).probabilities for f in (pagerank, cheirank)]
            # distinct probabilities, so the tie rule plays no part
            if min(np.diff(np.sort(v)).min() for v in vectors) <= 1e-9:
                continue
            perm = rng.permutation(n)            # node i becomes perm[i]
            src, tgt = g.edge_arrays()
            relabelled = DirectedGraph.from_edges(n, perm[src], perm[tgt])
            for f, v in zip((pagerank, cheirank), vectors):
                w = f(relabelled).probabilities
                assert np.allclose(w[perm], v, rtol=0, atol=1e-12)
                assert np.array_equal(rank_indices(w).ordering,
                                      perm[rank_indices(v).ordering])
            checked += 1
        assert checked >= 10


class TestGoogleParams:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            GoogleParams(alpha=alpha)

    def test_bad_tol_and_iters(self):
        with pytest.raises(ValueError):
            GoogleParams(tol=0.0)
        with pytest.raises(ValueError):
            GoogleParams(max_iter=0)


class TestDenseMatrix:
    def test_single_node(self):
        g = DirectedGraph.from_edges(1, [], [])
        assert np.array_equal(dense_google_matrix(g, 0.85), [[1.0]])

    def test_two_node_hand_expansion(self, two_node_graph):
        expected = np.array([[0.075, 0.5], [0.925, 0.5]])
        assert np.allclose(dense_google_matrix(two_node_graph, 0.85), expected,
                           atol=1e-15)

    def test_column_sums(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            g = random_graph(rng, 40, 0.08, dangling_tail=4)
            matrix = dense_google_matrix(g, 0.85)
            assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12

    def test_weighted_matrix_is_c_ordered(self):
        # dense_stationary's matvec rounding depends on the memory layout,
        # and culture CheiRank passes a transposed weight matrix
        weights = np.arange(16).reshape(4, 4) % 3
        assert google_matrix(weights.T, 0.85).flags.c_contiguous

    def test_refuses_over_limit(self):
        g = DirectedGraph.from_edges(3, [0], [1])
        with pytest.raises(ValueError, match="dense limit"):
            dense_google_matrix(g, 0.85, dense_limit=2)


class TestDenseStationary:
    def test_uniform_teleport_matrix(self):
        n = 6
        p = dense_stationary(np.full((n, n), 1.0 / n)).probabilities
        assert np.allclose(p, 1 / n, atol=1e-14)

    def test_agrees_with_sparse_within_ten_tol(self):
        rng = np.random.default_rng(21)
        tol = 1e-10
        for _ in range(3):
            g = random_graph(rng, 200, 0.02, dangling_tail=20)
            sparse_p = pagerank(g, GoogleParams(tol=tol)).probabilities
            dense_p = dense_stationary(dense_google_matrix(g, 0.85)).probabilities
            assert np.abs(sparse_p - dense_p).sum() <= 10 * tol

    def test_eigen_residual(self):
        g = random_graph(np.random.default_rng(22), 60, 0.05, dangling_tail=6)
        matrix = dense_google_matrix(g, 0.85)
        p = dense_stationary(matrix).probabilities
        assert np.abs(matrix @ p - p).sum() <= 1e-12

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="stochastic"):
            dense_stationary(np.eye(3) * 0.5)


class TestRankIndices:
    def test_simple_ordering(self):
        idx = rank_indices(np.array([0.2, 0.5, 0.3]))
        assert idx.ordering.tolist() == [1, 2, 0]
        assert idx.position.tolist() == [3, 1, 2]

    def test_all_equal_gives_identity(self):
        idx = rank_indices(np.full(5, 0.2))
        assert idx.ordering.tolist() == [0, 1, 2, 3, 4]

    def test_positions_are_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            probs = rng.random(30)
            idx = rank_indices(probs)
            assert sorted(idx.position.tolist()) == list(range(1, 31))
            # descending probabilities along the ordering
            ordered = probs[idx.ordering]
            assert np.all(ordered[:-1] >= ordered[1:])


class TestTwoDRank:
    def test_spec_example(self):
        result = two_d_rank(index_from((1, 2, 3)), index_from((3, 1, 2)))
        assert result.kprime.tolist() == [3, 2, 3]
        assert result.ordering.tolist() == [1, 2, 0]

    def test_equal_indices_reduce_to_pagerank_order(self):
        kp = index_from((2, 1, 4, 3))
        result = two_d_rank(kp, index_from((2, 1, 4, 3)))
        assert result.ordering.tolist() == kp.ordering.tolist()

    def test_exhaustive_small_against_brute_force(self):
        for n in (1, 2, 3, 4):
            for k in permutations(range(1, n + 1)):
                for ks in permutations(range(1, n + 1)):
                    result = two_d_rank(index_from(k), index_from(ks))
                    kprime = [max(a, b) for a, b in zip(k, ks)]
                    assert result.kprime.tolist() == kprime
                    brute = sorted(range(n),
                                   key=lambda i: (kprime[i], ks[i], k[i], i))
                    assert result.ordering.tolist() == brute

    def test_mismatched_node_sets(self):
        with pytest.raises(ValueError, match="different node sets"):
            two_d_rank(index_from((1, 2)), index_from((1, 2, 3)))

    def test_position_property(self):
        result = two_d_rank(index_from((1, 2, 3)), index_from((3, 1, 2)))
        assert result.position[result.ordering[0]] == 1
        assert sorted(result.position.tolist()) == [1, 2, 3]
