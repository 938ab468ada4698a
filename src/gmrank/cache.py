"""Rank-vector persistence: binary cache files and rank CSV export.

Cache layout (little-endian): magic ``GMRK``, version u16, algorithm tag u8
(0 = pagerank, 1 = cheirank), alpha f64, N u64, then N probabilities as f64.
Files are keyed by a content hash of the edge list, the options it was
parsed with and the iteration parameters, so a converged vector is never
recomputed for unchanged input.
"""
from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import IO

import numpy as np

from .rank import (CHEIRANK, PAGERANK, RankIndex, RankVector,
                   TwoDRankResult)

MAGIC = b"GMRK"
VERSION = 1

_HEADER = struct.Struct("<4sHBdQ")
_ALGORITHM_TAGS = {PAGERANK: 0, CHEIRANK: 1}
_TAG_ALGORITHMS = {v: k for k, v in _ALGORITHM_TAGS.items()}


class CacheFormatError(ValueError):
    """Cache file is not a valid GMRK vector file."""


def write_vector(stream: IO[bytes], vector: RankVector, alpha: float) -> None:
    probs = np.ascontiguousarray(vector.probabilities, dtype="<f8")
    tag = _ALGORITHM_TAGS[vector.algorithm]
    stream.write(_HEADER.pack(MAGIC, VERSION, tag, alpha, probs.size))
    stream.write(probs.tobytes())


def read_vector(stream: IO[bytes]) -> tuple[RankVector, float]:
    """Returns the stored vector and its damping factor.

    Raises :class:`CacheFormatError` on bad magic, version, or truncation.
    """
    header = stream.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise CacheFormatError("truncated header")
    magic, version, tag, alpha, n = _HEADER.unpack(header)
    if magic != MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    if tag not in _TAG_ALGORITHMS:
        raise CacheFormatError(f"unknown algorithm tag {tag}")
    payload = stream.read(8 * n)
    if len(payload) != 8 * n:
        raise CacheFormatError(f"expected {n} probabilities, file truncated")
    probs = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    vector = RankVector(probs, _TAG_ALGORITHMS[tag], iterations_used=0,
                        residual=0.0)
    return vector, alpha


def content_hash(path: str | Path) -> str:
    """SHA-256 of the raw edge-list bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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


def write_rank_csv(stream: IO[str], vector: RankVector, index: RankIndex,
                   labels: tuple[str, ...] | None = None) -> None:
    """Rows ``node_id,label,probability,rank`` in rank order."""
    stream.write("node_id,label,probability,rank\n")
    probs = vector.probabilities
    for rank, node in enumerate(index.ordering.tolist(), start=1):
        label = labels[node] if labels is not None else ""
        stream.write(f"{node},{label},{float(probs[node])!r},{rank}\n")


def write_two_d_rank_csv(stream: IO[str], kp: RankIndex, kc: RankIndex,
                         result: TwoDRankResult,
                         labels: tuple[str, ...] | None = None) -> None:
    """Rows ``node_id,label,k,kstar,kprime`` in 2DRank order."""
    stream.write("node_id,label,k,kstar,kprime\n")
    for node in result.ordering.tolist():
        label = labels[node] if labels is not None else ""
        stream.write(f"{node},{label},{kp.position[node]},"
                     f"{kc.position[node]},{result.kprime[node]}\n")
