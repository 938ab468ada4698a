"""The cache directory: parsed graphs and rank vectors.

Two artifact kinds share one directory, both little-endian:

- ``{key}.gmrg``, a parsed graph: magic ``GMRG``, version u16, label flag u8,
  one pad byte, then N, E, self-loops removed and the label blob's byte
  length as u64; then ``in_indptr`` (N+1), ``in_sources`` (E) and
  ``out_degree`` (N) as int64, then the labels joined by newlines in UTF-8.
  Keyed by the edge list's content hash, label mode and self-loop policy.
- ``{key}.gmrk``, a converged vector: magic ``GMRK``, version u16, algorithm
  tag u8 (0 = pagerank, 1 = cheirank), alpha f64, tol f64, sweeps u64,
  final residual f64, N u64, then N probabilities as f64.  Keyed by the
  graph key's inputs plus algorithm, alpha and tol.

A reader raises :class:`CacheFormatError` on any file it cannot trust,
including one of an older version; the caller treats that as a miss.
"""
from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import IO

import numpy as np

from .graph import DirectedGraph
from .rank import CHEIRANK, PAGERANK, RankVector

MAGIC = b"GMRK"
VERSION = 2

_HEADER = struct.Struct("<4sHBddQdQ")
_ALGORITHM_TAGS = {PAGERANK: 0, CHEIRANK: 1}
_TAG_ALGORITHMS = {v: k for k, v in _ALGORITHM_TAGS.items()}

GRAPH_MAGIC = b"GMRG"
GRAPH_VERSION = 1

# 40 bytes, so the int64 arrays after it start 8-byte aligned
_GRAPH_HEADER = struct.Struct("<4sHBxQQQQ")


class CacheFormatError(ValueError):
    """Cache file is not a valid artifact of the current version."""


def write_vector(stream: IO[bytes], vector: RankVector, alpha: float,
                 tol: float) -> None:
    probs = np.ascontiguousarray(vector.probabilities, dtype="<f8")
    tag = _ALGORITHM_TAGS[vector.algorithm]
    stream.write(_HEADER.pack(MAGIC, VERSION, tag, alpha, tol,
                              vector.iterations_used, vector.residual,
                              probs.size))
    stream.write(probs.tobytes())


def read_vector(stream: IO[bytes]) -> tuple[RankVector, float, float]:
    """Returns the stored vector, with its sweeps and residual, alpha and tol.

    Raises :class:`CacheFormatError` on bad magic, version, or a length
    that does not match the header.
    """
    data = stream.read()
    if len(data) < _HEADER.size:
        raise CacheFormatError("truncated header")
    (magic, version, tag, alpha, tol, sweeps, residual,
     n) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    if tag not in _TAG_ALGORITHMS:
        raise CacheFormatError(f"unknown algorithm tag {tag}")
    if len(data) != _HEADER.size + 8 * n:
        raise CacheFormatError(
            f"expected {n} probabilities, found "
            f"{(len(data) - _HEADER.size) / 8:g}: file truncated or overlong")
    probs = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).astype(
        np.float64)
    vector = RankVector(probs, _TAG_ALGORITHMS[tag], iterations_used=sweeps,
                        residual=residual)
    return vector, alpha, tol


def write_graph(stream: IO[bytes], g: DirectedGraph) -> None:
    """Labels must hold no newline; parsed labels hold no whitespace."""
    blob = b"" if g.labels is None else "\n".join(g.labels).encode("utf-8")
    stream.write(_GRAPH_HEADER.pack(
        GRAPH_MAGIC, GRAPH_VERSION, g.labels is not None, g.node_count,
        g.edge_count, g.self_loops_removed, len(blob)))
    for array in (g.in_indptr, g.in_sources, g.out_degree):
        stream.write(np.ascontiguousarray(array, dtype="<i8").data)
    stream.write(blob)


def read_graph(stream: IO[bytes]) -> DirectedGraph:
    """The stored graph; its arrays are read-only views of one buffer.

    Raises :class:`CacheFormatError` unless the header, the file length and
    the arrays agree: edge offsets run from 0 to E without falling, every
    source lies in [0, N), the out-degrees count the sources, and the label
    blob splits into N labels.
    """
    data = stream.read()
    if len(data) < _GRAPH_HEADER.size:
        raise CacheFormatError("truncated header")
    (magic, version, labeled, n, e, removed,
     label_bytes) = _GRAPH_HEADER.unpack_from(data)
    if magic != GRAPH_MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != GRAPH_VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    if labeled not in (0, 1) or (label_bytes and not labeled):
        raise CacheFormatError(f"bad label flag {labeled}")
    words = 2 * n + 1 + e
    arrays_end = _GRAPH_HEADER.size + 8 * words
    if len(data) != arrays_end + label_bytes:
        raise CacheFormatError(
            f"expected {arrays_end + label_bytes} bytes, found {len(data)}")
    body = np.frombuffer(data, dtype="<i8", count=words,
                         offset=_GRAPH_HEADER.size)
    in_indptr, in_sources, out_degree = np.split(body, (n + 1, n + 1 + e))
    if (in_indptr[0] != 0 or in_indptr[-1] != e
            or np.any(in_indptr[1:] < in_indptr[:-1])):
        raise CacheFormatError("edge offsets inconsistent with edge count")
    if e and (in_sources.min() < 0 or in_sources.max() >= n):
        raise CacheFormatError(f"source id outside [0, {n})")
    if not np.array_equal(np.bincount(in_sources, minlength=n), out_degree):
        raise CacheFormatError("out-degrees do not count the edge sources")
    labels = None
    if labeled:
        try:
            text = data[arrays_end:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheFormatError(f"labels are not UTF-8 ({exc})") from None
        labels = tuple(text.split("\n")) if text else ()
        if len(labels) != n:
            raise CacheFormatError(f"expected {n} labels, found {len(labels)}")
    return DirectedGraph(node_count=n, in_indptr=in_indptr,
                         in_sources=in_sources, out_degree=out_degree,
                         labels=labels, self_loops_removed=removed)


def content_hash(path: str | Path) -> str:
    """SHA-256 of the raw edge-list bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def graph_key(edge_list_hash: str, label_mode: str,
              drop_self_loops: bool) -> str:
    """Stable key for one edge list parsed in one label mode and loop policy."""
    raw = f"{edge_list_hash}:{label_mode}:{drop_self_loops}".encode()
    return hashlib.sha256(raw).hexdigest()[:32]


def cache_key(edge_list_hash: str, algorithm: str, alpha: float, tol: float,
              label_mode: str, drop_self_loops: bool) -> str:
    """Stable key for one edge list, parse mode, algorithm, alpha and tol.

    The label mode and the self-loop policy change the parsed graph, so
    they are part of the key along with the file bytes.
    """
    raw = (f"{edge_list_hash}:{label_mode}:{drop_self_loops}:{algorithm}:"
           f"{alpha!r}:{tol!r}").encode()
    return hashlib.sha256(raw).hexdigest()[:32]


def cache_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.gmrk"


def graph_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.gmrg"

