"""Weighted network of cultures and its Google-matrix ranking.

Node set is fixed: the 24 covered languages plus WR, ordered alphabetically
by code.  The network is its (25, 25) int64 weight matrix: the weight of the
directed link A -> B counts figures of culture B quoted in edition A's top
list; own-culture figures create no link.  The matrix goes straight to
:func:`gmrank.rank.google_matrix`, the dense builder the article graphs use:
columns are normalized by total outgoing weight, and a culture with no
outgoing weight (WR always, fully local editions sometimes) is dangling,
same rule as articles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .rank import (GoogleParams, dense_stationary, google_matrix, rank_indices,
                   two_d_rank)
from .registry import (EDITION_CODES, WORLD, PersonRegistry, TopList,
                       appearances)

CULTURE_CODES: tuple[str, ...] = tuple(sorted(EDITION_CODES + (WORLD,)))
CULTURE_INDEX: Mapping[str, int] = {c: i for i, c in enumerate(CULTURE_CODES)}
N_CULTURES = len(CULTURE_CODES)


def build_culture_network(toplists: Sequence[TopList],
                          registry: PersonRegistry,
                          before_century: int | None = None) -> np.ndarray:
    """The (25, 25) int64 weight matrix of cross-cultural appearances.

    ``weights[a, b]`` counts culture-b figures in edition a's list;
    the diagonal is identically zero.  ``before_century`` keeps only
    persons born strictly before that century (persons of unknown birth
    year never pass the filter).
    """
    weights = np.zeros((N_CULTURES, N_CULTURES), dtype=np.int64)
    for edition, person in appearances(toplists, registry):
        if before_century is not None and (
                person.century is None or person.century >= before_century):
            continue
        if person.culture != edition:
            weights[CULTURE_INDEX[edition], CULTURE_INDEX[person.culture]] += 1
    return weights


# benchmarks/spans.py times the culture matrix under this name, so
# culture_ranks builds its forward matrix through it: keep it
culture_google_matrix = google_matrix


@dataclass(frozen=True, eq=False)
class CultureRanks:
    """Per-culture PageRank / CheiRank / 2DRank triple, in CULTURE_CODES order."""

    pagerank_probs: np.ndarray
    cheirank_probs: np.ndarray
    k: np.ndarray                # 1-based PageRank index per culture
    kstar: np.ndarray            # 1-based CheiRank index per culture
    kprime: np.ndarray           # max(k, kstar)
    pagerank_ordering: np.ndarray
    matrix: np.ndarray           # (25, 25) Google matrix pagerank_probs solves


def culture_ranks(weights: np.ndarray,
                  alpha: float = GoogleParams.alpha) -> CultureRanks:
    """Rank all cultures by PageRank, CheiRank and 2DRank of the dense matrix.

    CheiRank is the PageRank of the weight-reversed network; orderings use
    the standard tie rule (ascending node id, i.e. alphabetical code).
    Unlike the sparse path, which ties only exactly equal floats, ordering
    keys here are quantized at 1e-12 (far below any meaningful
    probability gap at N = 25, far above the 1e-14 iteration tolerance) so
    exact symmetries yield exact ties; reported probabilities stay raw.
    """
    matrix = culture_google_matrix(weights, alpha)
    forward = dense_stationary(matrix)
    backward = dense_stationary(google_matrix(weights.T, alpha))
    kp = rank_indices(np.round(forward.probabilities, 12))
    kc = rank_indices(np.round(backward.probabilities, 12))
    twod = two_d_rank(kp, kc)
    return CultureRanks(
        pagerank_probs=forward.probabilities,
        cheirank_probs=backward.probabilities,
        k=kp.position, kstar=kc.position, kprime=twod.kprime,
        pagerank_ordering=kp.ordering, matrix=matrix)


def export_matrix_by_rank(matrix: np.ndarray, ordering: np.ndarray) -> np.ndarray:
    """Rows and columns simultaneously permuted into rank order."""
    ordering = np.asarray(ordering)
    n = matrix.shape[0]
    if sorted(ordering.tolist()) != list(range(n)):
        raise ValueError("ordering is not a permutation of the node set")
    return matrix[np.ix_(ordering, ordering)]
