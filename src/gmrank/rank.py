"""Google-matrix rank vectors by sparse power iteration.

The transition matrix S column-normalizes the adjacency; columns of
dangling nodes (zero out-degree) act as uniform 1/N.  The full matrix
G = alpha*S + (1-alpha)/N is never materialized on the sparse path:
each sweep does one sparse matvec plus a uniform redistribution of the
dangling mass, O(E + N) per iteration.  The matrix shares the graph's own
int32 index arrays, so it adds only its float64 data, 8 B per edge.  On
large graphs each sweep is split into contiguous row blocks that run on
the process's usable CPUs; every row sum and every elementwise step is the
same as on one thread, so the output bits do not depend on the block
count.  scipy and the thread pool are imported by the first call that
builds a sparse matrix or splits a sweep, so code that only reads stored
vectors or ranks the culture network never loads them.  One dense builder,
:func:`google_matrix`, takes a weighted adjacency: it is the oracle for the
sparse path in tests and self-checks, and it ranks the 25-node culture
network.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from .graph import DirectedGraph, reverse

if TYPE_CHECKING:
    from scipy import sparse

PAGERANK = "pagerank"
CHEIRANK = "cheirank"

DENSE_LIMIT = 2000
DENSE_TOL = 1e-14           # L1 tolerance of dense_stationary
DENSE_MAX_ITER = 100_000    # its iteration cap

# Stored entries per row block of a sweep: a matrix gets at most
# nnz // BLOCK_NNZ blocks, so a two-block split starts at 2**17 entries.
# Measured on a 2-vCPU x86 box: a two-way sweep lost below about 50k
# entries and won from about 100k (131k: 0.35-0.40 ms on one thread,
# 0.31-0.38 ms on two; 262k: 0.77-0.81 vs 0.55-0.59 ms).
BLOCK_NNZ = 1 << 16


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach tolerance; carries the last iterate."""

    def __init__(self, message: str, vector: np.ndarray, residual: float,
                 iterations: int):
        super().__init__(message)
        self.vector = vector
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class GoogleParams:
    """Damping factor, L1 stopping tolerance and iteration cap."""

    alpha: float = 0.85
    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class RankVector:
    """Stationary probability vector of G plus convergence bookkeeping."""

    probabilities: np.ndarray
    algorithm: str              # "pagerank" | "cheirank"
    iterations_used: int
    residual: float

    def __len__(self) -> int:
        return int(self.probabilities.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankVector):
            return NotImplemented
        return (self.algorithm == other.algorithm
                and np.array_equal(self.probabilities, other.probabilities))


@dataclass(frozen=True, eq=False)
class RankIndex:
    """Descending-probability ordering and the 1-based rank of every node."""

    ordering: np.ndarray        # ordering[k] = node at rank k+1
    position: np.ndarray        # position[i] = rank K(i) in [1, N]

    def __len__(self) -> int:
        return int(self.ordering.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankIndex):
            return NotImplemented
        return np.array_equal(self.ordering, other.ordering)


@dataclass(frozen=True, eq=False)
class TwoDRankResult:
    """Combined ranking K'(i) = max(K(i), K*(i)) and its ordering."""

    kprime: np.ndarray
    ordering: np.ndarray

    def __len__(self) -> int:
        return int(self.ordering.size)


def _transition_matrix(g: DirectedGraph) -> sparse.csr_matrix:
    # rows = targets, cols = sources; its indptr and indices are the graph's
    # int32 target-grouped arrays themselves, so only the data is new.
    # Every edge of source j gets the one quotient 1 / out_degree[j].
    from scipy import sparse

    reciprocal = np.zeros(g.node_count)
    np.divide(1.0, g.out_degree, out=reciprocal, where=g.out_degree > 0)
    return sparse.csr_matrix(
        (reciprocal[g.in_sources], g.in_sources, g.in_indptr),
        shape=(g.node_count, g.node_count))


def _usable_cpus() -> int:
    """CPUs the OS lets this process run on (its affinity mask, if any)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0))
    return os.cpu_count() or 1


def _row_blocks(matrix: sparse.csr_matrix) -> list[tuple[int, int, sparse.csr_matrix]]:
    """Contiguous row blocks ``(lo, hi, rows)`` with about equal stored entries.

    There are ``min(usable CPUs, nnz // BLOCK_NNZ)`` blocks, at least one;
    a single block is ``matrix`` itself.  Otherwise each ``rows`` is a CSR
    matrix over slices of ``matrix.data`` and ``matrix.indices`` (views);
    only its rebased ``indptr`` is new.  A block may hold no rows when
    several cuts fall on one row.
    """
    n = matrix.shape[0]
    parts = max(1, min(_usable_cpus(), matrix.nnz // BLOCK_NNZ))
    if parts == 1:
        return [(0, n, matrix)]
    from scipy import sparse

    indptr = matrix.indptr
    cuts = np.searchsorted(indptr, matrix.nnz * np.arange(parts + 1) // parts)
    cuts[0], cuts[-1] = 0, n
    blocks = []
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        start, end = indptr[lo], indptr[hi]
        # assigned after construction: the (data, indices, indptr)
        # constructor copies a slice that is under half of its base array
        rows = sparse.csr_matrix((hi - lo, n))
        rows.data = matrix.data[start:end]
        rows.indices = matrix.indices[start:end]
        rows.indptr = indptr[lo:hi + 1] - start
        blocks.append((lo, hi, rows))
    return blocks


def _sweep_block(block: tuple[int, int, sparse.csr_matrix], p: np.ndarray,
                 new_p: np.ndarray, diff: np.ndarray, alpha: float,
                 shift: float) -> None:
    # new_p[lo:hi] = alpha * (rows @ p) + shift; diff[lo:hi] = |new_p - p|
    lo, hi, rows = block
    out = new_p[lo:hi]
    np.multiply(rows @ p, alpha, out=out)
    out += shift
    step = diff[lo:hi]
    np.subtract(out, p[lo:hi], out=step)
    np.abs(step, out=step)


def pagerank(g: DirectedGraph, params: GoogleParams = GoogleParams()) -> RankVector:
    """Stationary vector of G by power iteration from the uniform vector.

    Dangling mass is accumulated per sweep and spread uniformly; stops when
    the L1 distance between successive iterates drops to ``params.tol``.
    The returned vector is renormalized to sum exactly 1.

    Each sweep runs its row blocks (:func:`_row_blocks`) side by side: the
    calling thread takes the first and a thread pool the rest.  With one
    block no thread is started.  The dangling mass and the residual are
    summed on the calling thread over the full arrays, so results are
    bit-identical for any block count.

    Raises :class:`ConvergenceError` after ``params.max_iter`` sweeps.
    """
    n = g.node_count
    if n < 1:
        raise ValueError("pagerank requires at least one node")
    alpha = params.alpha
    blocks = _row_blocks(_transition_matrix(g))
    dangling = np.flatnonzero(g.out_degree == 0)

    p = np.full(n, 1.0 / n)
    new_p = np.empty(n)         # p and new_p swap roles each sweep
    diff = np.empty(n)
    pool = nullcontext()
    if len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(len(blocks) - 1, "gmrank-sweep")
    with pool:
        for iteration in range(1, params.max_iter + 1):
            dangling_mass = float(p[dangling].sum())
            shift = (alpha * dangling_mass + (1.0 - alpha)) / n
            futures = [pool.submit(_sweep_block, block, p, new_p, diff,
                                   alpha, shift)
                       for block in blocks[1:]]
            _sweep_block(blocks[0], p, new_p, diff, alpha, shift)
            for future in futures:
                future.result()
            residual = float(diff.sum())
            p, new_p = new_p, p
            if residual <= params.tol:
                p /= p.sum()
                return RankVector(p, PAGERANK, iteration, residual)

    raise ConvergenceError(
        f"no convergence after {params.max_iter} iterations "
        f"(residual {residual:.3e} > tol {params.tol:.3e})",
        vector=p, residual=residual, iterations=params.max_iter)


def cheirank(g: DirectedGraph, params: GoogleParams = GoogleParams()) -> RankVector:
    """PageRank of the link-reversed graph, tagged as cheirank."""
    return replace(pagerank(reverse(g), params), algorithm=CHEIRANK)


def rank_indices(v: RankVector | np.ndarray) -> RankIndex:
    """Stable descending sort by probability; ties broken by ascending node id.

    Probabilities tie only on exact float equality.  Callers that want
    near-equal values to tie round them first, as the 25-node culture
    ranking does at 1e-12 (:func:`gmrank.cultures.culture_ranks`).
    """
    probs = v.probabilities if isinstance(v, RankVector) else np.asarray(v, dtype=float)
    ordering = np.argsort(-probs, kind="stable")
    position = np.empty(probs.size, dtype=np.int64)
    position[ordering] = np.arange(1, probs.size + 1)
    return RankIndex(ordering=ordering, position=position)


def two_d_rank(kp: RankIndex, kc: RankIndex) -> TwoDRankResult:
    """Combine PageRank and CheiRank indices via K'(i) = max(K(i), K*(i)).

    Output ordering is ascending in K'; ties break by ascending K*, then
    ascending K, then ascending node id.  K* is a permutation, so K* alone
    settles every tie and one sort of the key ``K' * (N + 1) + K*`` gives
    that order.
    """
    if len(kp) != len(kc):
        raise ValueError(
            f"rank indices cover different node sets ({len(kp)} vs {len(kc)})")
    k = kp.position
    kstar = kc.position
    kprime = np.maximum(k, kstar)
    ordering = np.argsort(kprime * (k.size + 1) + kstar)
    return TwoDRankResult(kprime=kprime,
                          ordering=ordering.astype(np.int64, copy=False))


def google_matrix(weights: np.ndarray,
                  alpha: float = GoogleParams.alpha) -> np.ndarray:
    """Dense G = alpha*S + (1-alpha)/N of a weighted adjacency matrix.

    ``weights[j, i]`` is the weight of the link j -> i.  Column j of S is
    row j of ``weights`` over its total (Langville & Meyer, "Deeper inside
    PageRank", 2004); a node with no outgoing weight is dangling and its
    column is uniform 1/N.  Every column of G sums to 1.
    """
    GoogleParams(alpha=alpha)       # raises unless 0 < alpha < 1
    n = weights.shape[0]
    out_totals = weights.sum(axis=1)
    dangling = out_totals == 0
    # C order, as dense_stationary's matvec rounding depends on the layout
    matrix = np.full((n, n), (1.0 - alpha) / n)
    matrix += alpha * weights.T / np.where(dangling, 1, out_totals)
    matrix[:, dangling] += alpha / n
    return matrix


def dense_google_matrix(g: DirectedGraph,
                        alpha: float = GoogleParams.alpha) -> np.ndarray:
    """:func:`google_matrix` of the graph's 0/1 adjacency.

    Refuses graphs above :data:`DENSE_LIMIT` nodes.
    """
    n = g.node_count
    if n < 1:
        raise ValueError("dense_google_matrix requires at least one node")
    if n > DENSE_LIMIT:
        raise ValueError(
            f"graph has {n} nodes, over the dense limit {DENSE_LIMIT}")
    adjacency = np.zeros((n, n), dtype=bool)
    src, tgt = g.edge_arrays()
    adjacency[src, tgt] = True
    return google_matrix(adjacency, alpha)


def dense_stationary(matrix: np.ndarray) -> RankVector:
    """Principal eigenvector (eigenvalue 1) of a column-stochastic matrix.

    Dense power iteration to :data:`DENSE_TOL` in L1; the oracle for the
    sparse path.  Raises :class:`ConvergenceError` after
    :data:`DENSE_MAX_ITER` iterations.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(f"matrix size {n} over the dense limit {DENSE_LIMIT}")
    col_err = float(np.abs(matrix.sum(axis=0) - 1.0).max())
    if col_err > 1e-9 or matrix.min() < 0.0:
        raise ValueError(
            f"matrix is not column-stochastic (column-sum error {col_err:.3e})")

    p = np.full(n, 1.0 / n)
    for iteration in range(1, DENSE_MAX_ITER + 1):
        new_p = matrix @ p
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if residual <= DENSE_TOL:
            p /= p.sum()
            return RankVector(p, PAGERANK, iteration, residual)
    raise ConvergenceError(
        f"dense iteration stalled at residual {residual:.3e}",
        vector=p, residual=residual, iterations=DENSE_MAX_ITER)
