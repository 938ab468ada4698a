"""Directed hyperlink graphs in compressed sparse form.

Edges are deduplicated (multi-links collapse to one) and stored grouped by
target node, sources ascending within each target, so the per-node sum over
incoming links done by the power iteration is a contiguous scan.  The order
comes from one in-place sort of the int64 key ``target * N + source``.  The
offsets and source ids are kept as int32, scipy's own index type, so a
sparse matrix built over them shares them rather than copying.  Graphs are
immutable after construction; :func:`reverse` materializes the opposite
grouping once.

Edge-list files are UTF-8 text, one ``source target`` pair per line,
``#`` comments, optional ``# nodes: N`` header before the first edge.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np

try:
    import resource
except ImportError:             # not on every platform
    resource = None

_HEADER_RE = re.compile(r"#\s*nodes:\s*(\d+)\s*$")

INTEGER_IDS = "integer-ids"
STRING_LABELS = "string-labels"

# most nodes a graph may be built with: well above the 4.2M articles of the
# paper's largest edition, with each per-node int64 array within 2 GiB
MAX_NODE_COUNT = 1 << 28

# most distinct edges a graph may hold: its offsets are int32
MAX_EDGE_COUNT = (1 << 31) - 1

# peak bytes per node of ``rank --algorithm 2drank`` on a graph of 2**20
# nodes and few edges: what each node a file asks for costs to rank
BYTES_PER_NODE = 120


def _memory_limit() -> int | None:
    """Bytes this process may use: the smaller of its soft address-space
    limit and the machine's physical memory; None if neither is known."""
    limits = []
    if resource is not None:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    try:
        limits.append(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        pass
    return min(limits, default=None)


class EdgeListError(ValueError):
    """Malformed edge-list input; the message opens with the 1-based line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Deduplicated directed adjacency over dense integer node ids [0, N).

    ``in_indptr``/``in_sources`` hold the edges grouped by target: the
    sources of edges into node ``i`` are ``in_sources[in_indptr[i]:in_indptr[i+1]]``,
    sorted ascending.  ``node_count`` and ``out_degree`` derive from them.
    The constructor raises ValueError unless both are 1-D signed integer
    arrays, the offsets start at 0, never fall and end at E, every source
    lies in [0, N), the sources rise strictly within each target, and
    ``labels`` is None or holds N labels.  :meth:`from_edges`,
    :func:`reverse` and :func:`gmrank.cache.read_graph` make both arrays
    int32, which a scipy matrix over them uses without a copy.
    """

    in_indptr: np.ndarray      # (N+1,) int32 offsets
    in_sources: np.ndarray     # (E,) int32 source ids
    labels: tuple[str, ...] | None = None
    self_loops_removed: int = 0

    def __post_init__(self) -> None:
        offsets, sources = self.in_indptr, self.in_sources
        if not all(isinstance(a, np.ndarray) and a.ndim == 1
                   and a.dtype.kind == "i" for a in (offsets, sources)):
            raise ValueError("edge arrays must be 1-D signed integer arrays")
        if (not offsets.size or offsets[0] != 0 or offsets[-1] != sources.size
                or np.any(offsets[1:] < offsets[:-1])):
            raise ValueError("edge offsets inconsistent with edge count")
        n = self.node_count
        if sources.size and (sources.min() < 0 or sources.max() >= n):
            raise ValueError(f"source id outside [0, {n})")
        # rising[j]: source j is above source j - 1, or opens its target
        rising = np.ones(sources.size + 1, dtype=bool)
        np.greater(sources[1:], sources[:-1], out=rising[1:-1])
        rising[offsets] = True
        if not rising.all():
            raise ValueError("sources not strictly ascending within a target")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError(f"expected {n} labels, found {len(self.labels)}")

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
        ``[0, node_count)``.  Edges are ordered by target, then source,
        through one sort of the int64 key ``target * node_count + source``;
        the graph keeps int32 offsets and sources.
        Raises ValueError before allocating anything when ``node_count``
        exceeds :data:`MAX_NODE_COUNT`, or when ranking that many nodes, at
        :data:`BYTES_PER_NODE` each, would need more than
        :func:`_memory_limit`; and before any int32 array is made when the
        distinct edges exceed :data:`MAX_EDGE_COUNT`.
        """
        if node_count > MAX_NODE_COUNT:
            raise ValueError(
                f"node count {node_count} over the limit {MAX_NODE_COUNT}")
        limit = _memory_limit()
        if limit is not None and node_count * BYTES_PER_NODE > limit:
            raise ValueError(
                f"node count {node_count} needs about "
                f"{node_count * BYTES_PER_NODE / 2**30:.1f} GiB to rank, "
                f"over the {limit / 2**30:.1f} GiB this process may use")
        src = np.asarray(sources, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.int64)
        if src.shape != tgt.shape:
            raise ValueError("sources and targets must have equal length")
        removed = 0
        if src.size:
            # checked first: a key folds an id out of range into another
            lo = min(src.min(), tgt.min())
            hi = max(src.max(), tgt.max())
            if lo < 0 or hi >= node_count:
                raise ValueError(
                    f"edge endpoint {lo if lo < 0 else hi} outside [0, {node_count})")
            key = tgt * node_count
            key += src
            if drop_self_loops:
                # a self-loop's key becomes -1, so the sort puts it first
                key[src == tgt] = -1
            key.sort()
            removed = int(np.searchsorted(key, 0))
            key = key[removed:]
            keep = np.empty(key.size, dtype=bool)
            keep[:1] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
            del keep
            if key.size > MAX_EDGE_COUNT:
                raise ValueError(f"edge count {key.size} over the limit "
                                 f"{MAX_EDGE_COUNT}")
            # a key's quotient is its target and its remainder, written
            # over the key, its source: one new array, not divmod's two
            tgt, src = np.empty_like(key), key
            del key
            np.divmod(src, node_count, out=(tgt, src))

        in_counts = np.bincount(tgt, minlength=node_count)
        del tgt                 # freed before the other per-node arrays
        # cast only now: beside the key-sized arrays it would raise the peak
        src = src.astype(np.int32)
        in_indptr = np.zeros(node_count + 1, dtype=np.int32)
        np.cumsum(in_counts, out=in_indptr[1:])
        return cls(in_indptr=in_indptr, in_sources=src, labels=labels,
                   self_loops_removed=removed)

    # -- derived views ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.in_indptr.size - 1

    @property
    def edge_count(self) -> int:
        return int(self.in_sources.size)

    @property
    def in_degree(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    @cached_property
    def out_degree(self) -> np.ndarray:
        """(N,) int64 out-neighbor counts, counted on first use."""
        return np.bincount(self.in_sources, minlength=self.node_count
                           ).astype(np.int64, copy=False)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) in the stored (target-grouped) order."""
        targets = np.repeat(np.arange(self.node_count, dtype=np.int64),
                            self.in_degree)
        return self.in_sources.copy(), targets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            np.array_equal(self.in_indptr, other.in_indptr)
            and np.array_equal(self.in_sources, other.in_sources)
            and self.labels == other.labels
        )


def load_edge_list(
    stream: TextIO | Iterable[str],
    drop_self_loops: bool = True,
    label_mode: str = INTEGER_IDS,
) -> DirectedGraph:
    """Parse a line-oriented edge list into a :class:`DirectedGraph`.

    Each non-comment line holds exactly two whitespace-separated tokens
    (source, target).  With ``label_mode="string-labels"`` tokens are interned
    to dense ids in first-appearance order; in integer mode an optional
    ``# nodes: N`` header, once and before the first edge, declares the
    node count (ids must then be < N).
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
            if m:
                if declared_n is not None or sources:
                    raise EdgeListError("a '# nodes:' header comes once, "
                                        "before the first edge", line_no)
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

    labels = None
    if label_mode == STRING_LABELS:
        if declared_n is not None and declared_n != len(intern):
            raise EdgeListError(
                f"header declares {declared_n} nodes, found {len(intern)} labels")
        node_count, labels = len(intern), tuple(intern)
    elif declared_n is not None:
        node_count = declared_n
    else:
        node_count = max(max(sources), max(targets)) + 1 if sources else 0

    return DirectedGraph.from_edges(
        node_count, sources, targets, labels=labels,
        drop_self_loops=drop_self_loops)


def reverse(g: DirectedGraph) -> DirectedGraph:
    """Graph with every edge (u, v) flipped to (v, u); degrees swap roles.

    One counting-sort transpose, scipy's CSR to CSC of the 0/1
    target-by-source matrix, regroups the edges by source with each
    group's targets ascending: the arrays :meth:`DirectedGraph.from_edges`
    builds from the flipped pairs, without their sort.  The graph keeps
    scipy's int32 arrays as they are.
    """
    from scipy import sparse

    n = g.node_count
    by_source = sparse.csr_matrix(
        (np.ones(g.edge_count, dtype=bool), g.in_sources, g.in_indptr),
        shape=(n, n)).tocsc()
    # carry load-time bookkeeping so reverse(reverse(g)) is indistinguishable
    return DirectedGraph(in_indptr=by_source.indptr,
                         in_sources=by_source.indices,
                         labels=g.labels, self_loops_removed=g.self_loops_removed)
