"""Rank-engine contracts: oracles first, then invariants and error paths."""
import io
import os
import sys
import threading
from itertools import permutations

import numpy as np
import pytest

from gmrank import cache, rank
from gmrank.graph import DirectedGraph, reverse
from gmrank.rank import (DENSE_LIMIT, ConvergenceError, GoogleParams,
                         RankIndex, cheirank, dense_google_matrix,
                         dense_stationary, google_matrix, pagerank,
                         rank_indices, two_d_rank)

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

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_convergence_error_matches_dense_iterates(self, max_iter):
        # the sweep buffers swap each sweep: the error must carry the newest
        g = random_graph(np.random.default_rng(31), 40, 0.05, dangling_tail=4)
        matrix = dense_google_matrix(g, 0.85)
        previous = p = np.full(g.node_count, 1.0 / g.node_count)
        for _ in range(max_iter):
            previous, p = p, matrix @ p
        with pytest.raises(ConvergenceError) as exc_info:
            pagerank(g, GoogleParams(tol=1e-15, max_iter=max_iter))
        err = exc_info.value
        assert err.iterations == max_iter
        assert np.allclose(err.vector, p, rtol=0, atol=1e-15)
        assert err.residual == pytest.approx(np.abs(p - previous).sum(),
                                             rel=1e-12)

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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tol(self, tol):
        # NaN passes a plain tol <= 0 test; +inf would stop after one sweep
        with pytest.raises(ValueError, match="tol"):
            GoogleParams(tol=tol)


def _trapped_graph(rng, n=40, pairs=3):
    """Random links among the first nodes, some of them into 2-cycles u <-> v
    at the end that send nothing back: a trapped set that mixes slowly."""
    linking = n - 2 * pairs
    src = list(rng.integers(0, linking, size=4 * n))
    tgt = list(rng.integers(0, n, size=4 * n))
    for k in range(pairs):
        u, v = linking + 2 * k, linking + 2 * k + 1
        src += [u, v]
        tgt += [v, u]
    return DirectedGraph.from_edges(n, src, tgt, drop_self_loops=True)


BLOCK_GRAPHS = {
    "ring": lambda: DirectedGraph.from_edges(7, range(7), [(i + 1) % 7 for i in range(7)]),
    "random-dangling": lambda: random_graph(np.random.default_rng(31), 60, 0.05,
                                            dangling_tail=6),
    # long enough that pairwise summation splits where the blocks do not
    "random-1500": lambda: random_graph(np.random.default_rng(33), 1500, 0.002,
                                        dangling_tail=100),
    "trapped-2-cycles": lambda: _trapped_graph(np.random.default_rng(32)),
    # every edge enters node 0, so inner cuts coincide and blocks are empty
    "hub": lambda: DirectedGraph.from_edges(9, range(1, 9), [0] * 8),
    "no-edges": lambda: DirectedGraph.from_edges(4, [], []),
    "single-node": lambda: DirectedGraph.from_edges(1, [], []),
}


def _blocks(monkeypatch, cpus, block_nnz=1):
    monkeypatch.setattr(rank, "BLOCK_NNZ", block_nnz)
    monkeypatch.setattr(rank, "_usable_cpus", lambda: cpus)


def _vector_bytes(vector):
    stream = io.BytesIO()
    cache.write_vector(stream, vector, 0.85, 1e-10)
    return stream.getvalue()


class TestRowBlocks:
    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    @pytest.mark.parametrize("parts", [2, 3, 5])
    @pytest.mark.parametrize("algorithm", [pagerank, cheirank])
    def test_bit_identical_to_one_block(self, monkeypatch, name, parts,
                                        algorithm):
        g = BLOCK_GRAPHS[name]()
        _blocks(monkeypatch, 1)
        reference = algorithm(g)
        _blocks(monkeypatch, parts)
        matrix = rank._transition_matrix(reverse(g) if algorithm is cheirank else g)
        assert len(rank._row_blocks(matrix)) == min(parts, max(1, matrix.nnz))
        got = algorithm(g)
        assert np.array_equal(got.probabilities, reference.probabilities)
        assert got.iterations_used == reference.iterations_used
        assert got.residual == reference.residual
        assert _vector_bytes(got) == _vector_bytes(reference)

    @pytest.mark.parametrize("name", ["random-1500", "trapped-2-cycles"])
    @pytest.mark.parametrize("parts", [2, 3, 5])
    @pytest.mark.parametrize("algorithm", [pagerank, cheirank])
    def test_convergence_error_identical(self, monkeypatch, name, parts,
                                         algorithm):
        # every cap up to 20 sweeps, so some final residual would differ if
        # it were summed block by block
        g = BLOCK_GRAPHS[name]()
        for max_iter in range(1, 21):
            errors = []
            for cpus in (1, parts):
                _blocks(monkeypatch, cpus)
                with pytest.raises(ConvergenceError) as exc_info:
                    algorithm(g, GoogleParams(max_iter=max_iter))
                errors.append(exc_info.value)
            reference, got = errors
            assert np.array_equal(got.vector, reference.vector)
            assert got.residual == reference.residual
            assert got.iterations == reference.iterations == max_iter

    def test_blocks_are_views_with_balanced_entries(self, monkeypatch):
        _blocks(monkeypatch, 3)
        matrix = rank._transition_matrix(BLOCK_GRAPHS["random-dangling"]())
        blocks = rank._row_blocks(matrix)
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == matrix.shape[0]
        sizes = [rows.nnz for _, _, rows in blocks]
        assert sum(sizes) == matrix.nnz
        assert max(sizes) - min(sizes) <= 2 * np.diff(matrix.indptr).max()
        for lo, hi, rows in blocks:
            assert np.shares_memory(rows.data, matrix.data)
            assert np.shares_memory(rows.indices, matrix.indices)
            assert (rows != matrix[lo:hi]).nnz == 0


class TestSweepThreads:
    def test_small_graph_starts_no_thread(self, monkeypatch):
        # 2 * BLOCK_NNZ entries are needed for a second block
        _blocks(monkeypatch, 3, block_nnz=rank.BLOCK_NNZ)

        def refuse(*args, **kwargs):
            raise AssertionError("executor built for a one-block sweep")

        monkeypatch.setattr(rank, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        g = random_graph(np.random.default_rng(8), 300, 0.05, dangling_tail=20)
        assert g.edge_count < 2 * rank.BLOCK_NNZ
        pagerank(g)
        cheirank(g)

    def test_block_count_capped_by_usable_cpus(self, monkeypatch):
        _blocks(monkeypatch, 3)
        sweeping = set()
        sweep = rank._sweep_block

        def record(*args):
            sweeping.add(threading.get_ident())
            sweep(*args)

        monkeypatch.setattr(rank, "_sweep_block", record)
        g = random_graph(np.random.default_rng(9), 80, 0.1)
        assert len(rank._row_blocks(rank._transition_matrix(g))) == 3
        pagerank(g)
        assert 1 < len(sweeping) <= 3

    def test_affinity_mask_is_the_limit(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert rank._usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_falls_back_to_cpu_count(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert rank._usable_cpus() == expected

    def test_identical_under_fast_thread_switching(self, monkeypatch):
        # five blocks and a thread switch every microsecond: a sweep that
        # read a half-written block would differ
        g = BLOCK_GRAPHS["random-1500"]()
        _blocks(monkeypatch, 1)
        reference = pagerank(g)
        _blocks(monkeypatch, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                got = pagerank(g)
                assert np.array_equal(got.probabilities, reference.probabilities)
                assert got.residual == reference.residual
        finally:
            sys.setswitchinterval(interval)

    def test_block_error_reaches_caller(self, monkeypatch):
        _blocks(monkeypatch, 3)
        baseline = threading.active_count()
        sweep = rank._sweep_block

        def fail_off_caller(block, *args):
            if block[0] > 0:
                raise FloatingPointError("block failed")
            sweep(block, *args)

        monkeypatch.setattr(rank, "_sweep_block", fail_off_caller)
        g = random_graph(np.random.default_rng(10), 80, 0.1)
        with pytest.raises(FloatingPointError, match="block failed"):
            pagerank(g)
        assert threading.active_count() == baseline


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
        # edgeless, so the graph is small; the refusal precedes the dense array
        g = DirectedGraph.from_edges(DENSE_LIMIT + 1, [], [])
        with pytest.raises(ValueError, match="dense limit"):
            dense_google_matrix(g, 0.85)


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

    def test_oscillation_raises_after_iteration_cap(self):
        # from the uniform start the iterates alternate between
        # (2/3, 1/3, 0) and (1/3, 2/3, 0), so the residual stays at 2/3
        matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ConvergenceError, match="stalled") as info:
            dense_stationary(matrix)
        assert info.value.iterations == rank.DENSE_MAX_ITER
        assert info.value.residual == pytest.approx(2 / 3)


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

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_heavy_matches_lexsort_oracle(self, seed):
        # K* near the reverse of K makes K' = max(K, K*) take each value
        # about twice, so most orderings rest on the tie rule
        rng = np.random.default_rng(seed)
        n = 500
        k = rng.permutation(n) + 1
        kstar = n + 1 - k
        swap = rng.choice(n, size=(20, 2), replace=False)
        kstar[swap[:, 0]], kstar[swap[:, 1]] = (kstar[swap[:, 1]],
                                                kstar[swap[:, 0]])
        result = two_d_rank(index_from(k), index_from(kstar))
        kprime = np.maximum(k, kstar)
        assert np.unique(kprime).size < 0.6 * n
        oracle = np.lexsort((np.arange(n), k, kstar, kprime))
        assert np.array_equal(result.ordering, oracle)
        assert np.array_equal(result.kprime, kprime)

    def test_mismatched_node_sets(self):
        with pytest.raises(ValueError, match="different node sets"):
            two_d_rank(index_from((1, 2)), index_from((1, 2, 3)))
