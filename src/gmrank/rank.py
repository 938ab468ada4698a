"""Google-matrix rank vectors by sparse power iteration.

The transition matrix S column-normalizes the adjacency; columns of
dangling nodes (zero out-degree) act as uniform 1/N.  The full matrix
G = alpha*S + (1-alpha)/N is never materialized on the sparse path:
each sweep does one sparse matvec plus a uniform redistribution of the
dangling mass, O(E + N) per iteration.  One dense builder,
:func:`google_matrix`, takes a weighted adjacency: it is the oracle for the
sparse path in tests and self-checks, and it ranks the 25-node culture
network.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from scipy import sparse

from .aggregate import overlap
from .graph import DirectedGraph, reverse

PAGERANK = "pagerank"
CHEIRANK = "cheirank"

DENSE_LIMIT = 2000


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
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
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

    @property
    def position(self) -> np.ndarray:
        """1-based 2DRank position per node."""
        pos = np.empty(self.ordering.size, dtype=np.int64)
        pos[self.ordering] = np.arange(1, self.ordering.size + 1)
        return pos

    def __len__(self) -> int:
        return int(self.ordering.size)


def _transition_matrix(g: DirectedGraph) -> sparse.csr_matrix:
    # rows = targets, cols = sources; reuses the graph's target-grouped arrays
    data = 1.0 / g.out_degree[g.in_sources]
    return sparse.csr_matrix(
        (data, g.in_sources, g.in_indptr),
        shape=(g.node_count, g.node_count))


def pagerank(g: DirectedGraph, params: GoogleParams = GoogleParams()) -> RankVector:
    """Stationary vector of G by power iteration from the uniform vector.

    Dangling mass is accumulated per sweep and spread uniformly; stops when
    the L1 distance between successive iterates drops to ``params.tol``.
    The returned vector is renormalized to sum exactly 1.

    Raises :class:`ConvergenceError` after ``params.max_iter`` sweeps.
    """
    n = g.node_count
    if n < 1:
        raise ValueError("pagerank requires at least one node")
    alpha = params.alpha
    matrix = _transition_matrix(g)
    dangling = g.out_degree == 0

    p = np.full(n, 1.0 / n)
    for iteration in range(1, params.max_iter + 1):
        dangling_mass = float(p[dangling].sum())
        new_p = alpha * (matrix @ p)
        new_p += (alpha * dangling_mass + (1.0 - alpha)) / n
        residual = float(np.abs(new_p - p).sum())
        p = new_p
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
    """Stable descending sort by probability; ties broken by ascending node id."""
    probs = v.probabilities if isinstance(v, RankVector) else np.asarray(v, dtype=float)
    ordering = np.argsort(-probs, kind="stable")
    position = np.empty(probs.size, dtype=np.int64)
    position[ordering] = np.arange(1, probs.size + 1)
    return RankIndex(ordering=ordering, position=position)


def two_d_rank(kp: RankIndex, kc: RankIndex) -> TwoDRankResult:
    """Combine PageRank and CheiRank indices via K'(i) = max(K(i), K*(i)).

    Output ordering is ascending in K'; ties break by ascending K*, then
    ascending K, then ascending node id.
    """
    if len(kp) != len(kc):
        raise ValueError(
            f"rank indices cover different node sets ({len(kp)} vs {len(kc)})")
    k = kp.position
    kstar = kc.position
    kprime = np.maximum(k, kstar)
    ordering = np.lexsort((np.arange(k.size), k, kstar, kprime))
    return TwoDRankResult(kprime=kprime, ordering=ordering.astype(np.int64))


def google_matrix(weights: np.ndarray, alpha: float = 0.85) -> np.ndarray:
    """Dense G = alpha*S + (1-alpha)/N of a weighted adjacency matrix.

    ``weights[j, i]`` is the weight of the link j -> i.  Column j of S is
    row j of ``weights`` over its total (Langville & Meyer, "Deeper inside
    PageRank", 2004); a node with no outgoing weight is dangling and its
    column is uniform 1/N.  Every column of G sums to 1.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = weights.shape[0]
    out_totals = weights.sum(axis=1)
    dangling = out_totals == 0
    # C order, as dense_stationary's matvec rounding depends on the layout
    matrix = np.full((n, n), (1.0 - alpha) / n)
    matrix += alpha * weights.T / np.where(dangling, 1, out_totals)
    matrix[:, dangling] += alpha / n
    return matrix


def dense_google_matrix(g: DirectedGraph, alpha: float = 0.85,
                        dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """:func:`google_matrix` of the graph's 0/1 adjacency.

    Refuses graphs above ``dense_limit`` nodes.
    """
    n = g.node_count
    if n < 1:
        raise ValueError("dense_google_matrix requires at least one node")
    if n > dense_limit:
        raise ValueError(
            f"graph has {n} nodes, over the dense limit {dense_limit}")
    adjacency = np.zeros((n, n), dtype=bool)
    src, tgt = g.edge_arrays()
    adjacency[src, tgt] = True
    return google_matrix(adjacency, alpha)


def dense_stationary(matrix: np.ndarray, tol: float = 1e-14,
                     max_iter: int = 100_000,
                     algorithm: str = PAGERANK) -> RankVector:
    """Principal eigenvector (eigenvalue 1) of a column-stochastic matrix.

    Dense power iteration to ``tol`` in L1; the oracle for the sparse path.
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
    for iteration in range(1, max_iter + 1):
        new_p = matrix @ p
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if residual <= tol:
            p /= p.sum()
            return RankVector(p, algorithm, iteration, residual)
    raise ConvergenceError(
        f"dense iteration stalled at residual {residual:.3e}",
        vector=p, residual=residual, iterations=max_iter)


def alpha_robustness_report(g: DirectedGraph,
                            alphas: Iterable[float] = (0.5, 0.65, 0.85, 0.95),
                            top_n: int = 100,
                            tol: float = 1e-10,
                            max_iter: int = 2000) -> dict[tuple[float, float], int]:
    """Top-n overlap of PageRank orderings across damping factors.

    Report material only; no threshold is attached to the numbers.
    """
    alphas = tuple(alphas)
    indices = {
        a: rank_indices(pagerank(g, GoogleParams(alpha=a, tol=tol, max_iter=max_iter)))
        for a in alphas
    }
    report: dict[tuple[float, float], int] = {}
    for i, a in enumerate(alphas):
        for b in alphas[i + 1:]:
            report[(a, b)] = overlap(indices[a].ordering[:top_n].tolist(),
                                     indices[b].ordering[:top_n].tolist())
    return report
