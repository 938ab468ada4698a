"""Directed hyperlink graphs in compressed sparse form.

Edges are deduplicated (multi-links collapse to one) and stored grouped by
target node, so the per-node sum over incoming links done by the power
iteration is a contiguous scan.  Graphs are immutable after construction;
:func:`reverse` materializes the opposite grouping once.

Edge-list files are UTF-8 text, one ``source target`` pair per line,
``#`` comments, optional ``# nodes: N`` header.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

_HEADER_RE = re.compile(r"#\s*nodes:\s*(\d+)\s*$")

INTEGER_IDS = "integer-ids"
STRING_LABELS = "string-labels"


class EdgeListError(ValueError):
    """Malformed edge-list input. Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    dangling_count: int
    self_loop_count: int


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Deduplicated directed adjacency over dense integer node ids [0, N).

    ``in_indptr``/``in_sources`` hold the edges grouped by target: the
    sources of edges into node ``i`` are ``in_sources[in_indptr[i]:in_indptr[i+1]]``,
    sorted ascending.  ``out_degree[j]`` counts distinct out-neighbors of ``j``.
    """

    node_count: int
    in_indptr: np.ndarray      # (N+1,) int64
    in_sources: np.ndarray     # (E,) int64
    out_degree: np.ndarray     # (N,) int64
    labels: tuple[str, ...] | None = None
    self_loops_removed: int = 0

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        sources: Iterable[int] | np.ndarray,
        targets: Iterable[int] | np.ndarray,
        labels: tuple[str, ...] | None = None,
        drop_self_loops: bool = False,
    ) -> "DirectedGraph":
        """Build a graph from parallel source/target id arrays.

        Duplicate pairs collapse to a single edge.  Endpoints must lie in
        ``[0, node_count)``.
        """
        src = np.asarray(sources, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.int64)
        if src.shape != tgt.shape:
            raise ValueError("sources and targets must have equal length")
        if labels is not None and len(labels) != node_count:
            raise ValueError("labels length must equal node_count")
        if src.size:
            lo = min(src.min(), tgt.min())
            hi = max(src.max(), tgt.max())
            if lo < 0 or hi >= node_count:
                raise ValueError(
                    f"edge endpoint {lo if lo < 0 else hi} outside [0, {node_count})")

        removed = 0
        if drop_self_loops and src.size:
            keep = src != tgt
            removed = int(src.size - np.count_nonzero(keep))
            src, tgt = src[keep], tgt[keep]

        if src.size:
            order = np.lexsort((src, tgt))          # by target, then source
            src, tgt = src[order], tgt[order]
            uniq = np.ones(src.size, dtype=bool)
            uniq[1:] = (src[1:] != src[:-1]) | (tgt[1:] != tgt[:-1])
            src, tgt = src[uniq], tgt[uniq]

        in_counts = np.bincount(tgt, minlength=node_count)
        in_indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(in_counts, out=in_indptr[1:])
        out_degree = np.bincount(src, minlength=node_count).astype(np.int64)
        return cls(
            node_count=node_count,
            in_indptr=in_indptr,
            in_sources=src,
            out_degree=out_degree,
            labels=labels,
            self_loops_removed=removed,
        )

    # -- derived views ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.in_sources.size)

    @property
    def in_degree(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of edges into ``node`` (ascending)."""
        return self.in_sources[self.in_indptr[node]:self.in_indptr[node + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) in the stored (target-grouped) order."""
        targets = np.repeat(np.arange(self.node_count, dtype=np.int64),
                            self.in_degree)
        return self.in_sources.copy(), targets

    def has_edge(self, source: int, target: int) -> bool:
        nbrs = self.in_neighbors(target)
        i = np.searchsorted(nbrs, source)
        return bool(i < nbrs.size and nbrs[i] == source)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self.in_indptr, other.in_indptr)
            and np.array_equal(self.in_sources, other.in_sources)
            and self.labels == other.labels
        )

    def validate(self) -> None:
        """Recompute degree arrays from the edge set and compare to stored ones."""
        src, tgt = self.edge_arrays()
        if not np.array_equal(np.bincount(src, minlength=self.node_count),
                              self.out_degree):
            raise AssertionError("out_degree inconsistent with edge set")
        if not np.array_equal(np.bincount(tgt, minlength=self.node_count),
                              self.in_degree):
            raise AssertionError("in_degree inconsistent with edge set")
        if int(self.out_degree.sum()) != self.edge_count:
            raise AssertionError("degree totals do not match edge count")


def load_edge_list(
    stream: TextIO | Iterable[str],
    drop_self_loops: bool = True,
    label_mode: str = INTEGER_IDS,
) -> DirectedGraph:
    """Parse a line-oriented edge list into a :class:`DirectedGraph`.

    Each non-comment line holds exactly two whitespace-separated tokens
    (source, target).  With ``label_mode="string-labels"`` tokens are interned
    to dense ids in first-appearance order; in integer mode an optional
    ``# nodes: N`` header declares the node count (ids must then be < N).
    """
    if label_mode not in (INTEGER_IDS, STRING_LABELS):
        raise ValueError(f"unknown label_mode: {label_mode!r}")

    declared_n: int | None = None
    sources: list[int] = []
    targets: list[int] = []
    intern: dict[str, int] = {}

    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m and declared_n is None:
                declared_n = int(m.group(1))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(
                f"expected 2 tokens, found {len(tokens)}", line_no)
        if label_mode == INTEGER_IDS:
            try:
                s, t = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListError(
                    f"non-integer node id in {tokens!r}", line_no) from None
            if s < 0 or t < 0:
                raise EdgeListError("negative node id", line_no)
            if declared_n is not None and (s >= declared_n or t >= declared_n):
                raise EdgeListError(
                    f"node id {max(s, t)} >= declared node count {declared_n}",
                    line_no)
        else:
            s = intern.setdefault(tokens[0], len(intern))
            t = intern.setdefault(tokens[1], len(intern))
        sources.append(s)
        targets.append(t)

    if label_mode == STRING_LABELS:
        if declared_n is not None and declared_n != len(intern):
            raise EdgeListError(
                f"header declares {declared_n} nodes, found {len(intern)} labels")
        node_count = len(intern)
        labels: tuple[str, ...] | None = tuple(intern)
    else:
        if declared_n is not None:
            node_count = declared_n
        elif sources:
            node_count = int(max(max(sources), max(targets))) + 1
        else:
            node_count = 0
        labels = None

    return DirectedGraph.from_edges(
        node_count, sources, targets, labels=labels,
        drop_self_loops=drop_self_loops)


def save_edge_list(g: DirectedGraph, stream: TextIO) -> None:
    """Serialize in canonical order (sorted by source, then target)."""
    stream.write(f"# nodes: {g.node_count}\n")
    src, tgt = g.edge_arrays()
    order = np.lexsort((tgt, src))
    if g.labels is not None:
        for i in order.tolist():
            stream.write(f"{g.labels[src[i]]} {g.labels[tgt[i]]}\n")
    else:
        for i in order.tolist():
            stream.write(f"{src[i]} {tgt[i]}\n")


def reverse(g: DirectedGraph) -> DirectedGraph:
    """Graph with every edge (u, v) flipped to (v, u); degrees swap roles."""
    src, tgt = g.edge_arrays()
    rev = DirectedGraph.from_edges(g.node_count, tgt, src, labels=g.labels)
    # carry load-time bookkeeping so reverse(reverse(g)) is indistinguishable
    return DirectedGraph(
        node_count=rev.node_count,
        in_indptr=rev.in_indptr,
        in_sources=rev.in_sources,
        out_degree=rev.out_degree,
        labels=rev.labels,
        self_loops_removed=g.self_loops_removed,
    )


def stats(g: DirectedGraph) -> GraphStats:
    return GraphStats(
        node_count=g.node_count,
        edge_count=g.edge_count,
        dangling_count=int(np.count_nonzero(g.out_degree == 0)),
        self_loop_count=g.self_loops_removed,
    )
