"""The cache directory: parsed graphs, rank vectors and the person registry.

Every artifact is named by one rule, :func:`artifact_path`: the first 32 hex
digits of the SHA-256 of its inputs joined by ``:``, then its kind's
suffix.  The first input is always the content hash of the file it derives
from; no input is a version.  Three kinds share the directory, all
little-endian, each opening with a 4-byte magic and a u16 version:

- ``.gmrg``, a parsed graph; inputs: edge-list hash, label mode, self-loop
  policy.  Magic ``GMRG``, version, label flag u8, one pad byte, then N, E,
  self-loops removed and the label blob's byte length as u64; then
  ``in_indptr`` (N+1) and ``in_sources`` (E) as int32, the graph's own
  dtype, then the labels joined by newlines in UTF-8.  No out-degrees: the
  graph derives them.
- ``.gmrk``, a converged vector; inputs: the graph's plus algorithm, alpha
  and tol.  Magic ``GMRK``, version, algorithm tag u8 (0 = pagerank,
  1 = cheirank), alpha f64, tol f64, sweeps u64, final residual f64, N u64,
  then N probabilities as f64: finite, positive and summing to 1.  It
  serves only a run of its algorithm, alpha, tol and N whose ``max_iter``
  is at least its sweeps.
- ``.gmrp``, the validated columns of a persons file; input: persons-file
  hash.  Not the culture map: validation never reads it, and each person's
  culture is derived from it on lookup.  Magic ``GMRP``, version, two pad
  bytes, then the person count P, the edition count E and the string blob's
  byte length as u64; then P birth years as int64 (0 = unknown); then the E
  edition codes, P ids, P birth countries, P genders and the P*E stripped
  titles, row by row, joined by NUL in UTF-8.  The reader leaves the titles
  joined.

Each kind has a writer ``write_<kind>(stream, ...)`` and a reader
``read_<kind>(stream, ...)``.  A reader raises :class:`CacheFormatError` on
any file whose format it cannot trust or use, including one of an older
version.  The value's own rules are its constructor's: ``read_graph``
re-raises a :class:`~gmrank.graph.DirectedGraph` refusal as a
:class:`CacheFormatError`, and the registry built from ``read_persons``'
columns raises ValueError itself.  The caller treats either as a miss.
"""
from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import IO

import numpy as np

from .graph import DirectedGraph
from .rank import CHEIRANK, PAGERANK, GoogleParams, RankVector

MAGIC = b"GMRK"
VERSION = 2

_HEADER = struct.Struct("<4sHBddQdQ")
_ALGORITHM_TAGS = {PAGERANK: 0, CHEIRANK: 1}
_TAG_ALGORITHMS = {v: k for k, v in _ALGORITHM_TAGS.items()}

GRAPH_MAGIC = b"GMRG"
GRAPH_VERSION = 3

# 40 bytes, so the int32 arrays after it start aligned
_GRAPH_HEADER = struct.Struct("<4sHBxQQQQ")


PERSONS_MAGIC = b"GMRP"
PERSONS_VERSION = 1

# 32 bytes, so the int64 birth years after it start 8-byte aligned
_PERSONS_HEADER = struct.Struct("<4sHxxQQQ")


class CacheFormatError(ValueError):
    """Cache file is not a valid artifact of the current version."""


def _header(data: bytes, layout: struct.Struct, magic: bytes,
            version: int) -> tuple:
    """The header fields after magic and version; raises unless both match."""
    if len(data) < layout.size:
        raise CacheFormatError("truncated header")
    fields = layout.unpack_from(data)
    if fields[0] != magic:
        raise CacheFormatError(f"bad magic {fields[0]!r}")
    if fields[1] != version:
        raise CacheFormatError(f"unsupported version {fields[1]}")
    return fields[2:]


def write_vector(stream: IO[bytes], vector: RankVector,
                 params: GoogleParams) -> None:
    probs = np.ascontiguousarray(vector.probabilities, dtype="<f8")
    tag = _ALGORITHM_TAGS[vector.algorithm]
    stream.write(_HEADER.pack(MAGIC, VERSION, tag, params.alpha, params.tol,
                              vector.iterations_used, vector.residual,
                              probs.size))
    stream.write(probs.tobytes())


def read_vector(stream: IO[bytes], algorithm: str, node_count: int,
                params: GoogleParams) -> RankVector:
    """The stored vector, with its sweeps and residual, if it serves this run.

    Raises :class:`CacheFormatError` on bad magic, version, a length that
    does not match the header, or probabilities that are not all finite
    and positive with a sum within 1e-9 of 1; then on an algorithm, node
    count, alpha or tol other than the run's; then on more sweeps than
    ``params.max_iter``, which a fresh run would not converge within.
    """
    data = stream.read()
    tag, alpha, tol, sweeps, residual, n = _header(data, _HEADER, MAGIC,
                                                   VERSION)
    if tag not in _TAG_ALGORITHMS:
        raise CacheFormatError(f"unknown algorithm tag {tag}")
    if len(data) != _HEADER.size + 8 * n:
        raise CacheFormatError(
            f"expected {n} probabilities, found "
            f"{(len(data) - _HEADER.size) / 8:g}: file truncated or overlong")
    probs = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).astype(
        np.float64)
    # a NaN or infinite entry makes the sum fail too; an empty vector sums to 0
    if not (abs(probs.sum() - 1.0) <= 1e-9 and probs.min() > 0.0):
        raise CacheFormatError("probabilities are not a positive distribution")
    if ((_TAG_ALGORITHMS[tag], n, alpha, tol)
            != (algorithm, node_count, params.alpha, params.tol)):
        raise CacheFormatError("does not match graph or parameters")
    if sweeps > params.max_iter:
        raise CacheFormatError(
            f"took {sweeps} sweeps, over max_iter {params.max_iter}")
    return RankVector(probs, algorithm, iterations_used=sweeps,
                      residual=residual)


def write_graph(stream: IO[bytes], g: DirectedGraph) -> None:
    """Labels must hold no newline; parsed labels hold no whitespace."""
    blob = b"" if g.labels is None else "\n".join(g.labels).encode("utf-8")
    stream.write(_GRAPH_HEADER.pack(
        GRAPH_MAGIC, GRAPH_VERSION, g.labels is not None, g.node_count,
        g.edge_count, g.self_loops_removed, len(blob)))
    for array in (g.in_indptr, g.in_sources):
        stream.write(np.ascontiguousarray(array, dtype="<i4").data)
    stream.write(blob)


def read_graph(stream: IO[bytes]) -> DirectedGraph:
    """The stored graph; its edge arrays are read-only views of one buffer.

    Raises :class:`CacheFormatError` unless the header and the file length
    agree and the labels are UTF-8, or when the arrays break a rule of the
    :class:`DirectedGraph` constructor, with its message.
    """
    data = stream.read()
    labeled, n, e, removed, label_bytes = _header(
        data, _GRAPH_HEADER, GRAPH_MAGIC, GRAPH_VERSION)
    if labeled not in (0, 1) or (label_bytes and not labeled):
        raise CacheFormatError(f"bad label flag {labeled}")
    words = n + 1 + e
    arrays_end = _GRAPH_HEADER.size + 4 * words
    if len(data) != arrays_end + label_bytes:
        raise CacheFormatError(
            f"expected {arrays_end + label_bytes} bytes, found {len(data)}")
    body = np.frombuffer(data, dtype="<i4", count=words,
                         offset=_GRAPH_HEADER.size)
    in_indptr, in_sources = np.split(body, (n + 1,))
    labels = None
    if labeled:
        try:
            text = data[arrays_end:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheFormatError(f"labels are not UTF-8 ({exc})") from None
        labels = tuple(text.split("\n")) if text else ()
    try:
        return DirectedGraph(in_indptr=in_indptr, in_sources=in_sources,
                             labels=labels, self_loops_removed=removed)
    except ValueError as exc:
        raise CacheFormatError(str(exc)) from None


def write_persons(stream: IO[bytes], ids: list[str],
                  fields: list[tuple[str, int | None, str]],
                  editions: list[str], titles: list[str]) -> None:
    """The columns of a registry as ``.gmrp``.

    Strings must hold no NUL and birth years must fit int64, as every
    persons file that ``load_persons`` accepts does.
    """
    countries, years, genders = zip(*fields) if fields else ((), (), ())
    blob = "\0".join([*editions, *ids, *countries, *genders, *titles]
                     ).encode("utf-8")
    stream.write(_PERSONS_HEADER.pack(PERSONS_MAGIC, PERSONS_VERSION,
                                      len(ids), len(editions), len(blob)))
    stream.write(np.array([y or 0 for y in years], dtype="<i8").data)
    stream.write(blob)


def read_persons(stream: IO[bytes]
                 ) -> tuple[list[str], list[tuple[str, int | None, str]],
                            list[str], str]:
    """The stored ``(ids, fields, editions, titles)`` of a persons file.

    The P*E titles come back still joined by NUL: a run that reads no
    title, such as ``global`` or ``culture``, never splits them.

    Raises :class:`CacheFormatError` on bad magic or version, a length that
    does not match the header, strings that are not UTF-8, or the wrong
    number of strings.  The columns are checked by the
    :class:`~gmrank.registry.PersonRegistry` built from them.
    """
    data = stream.read()
    p, e, blob_bytes = _header(data, _PERSONS_HEADER, PERSONS_MAGIC,
                               PERSONS_VERSION)
    blob_at = _PERSONS_HEADER.size + 8 * p
    if len(data) != blob_at + blob_bytes:
        raise CacheFormatError(
            f"expected {blob_at + blob_bytes} bytes, found {len(data)}")
    years = np.frombuffer(data, dtype="<i8", count=p,
                          offset=_PERSONS_HEADER.size).tolist()
    try:
        text = str(memoryview(data)[blob_at:], "utf-8")     # no copy
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"strings are not UTF-8 ({exc})") from None
    del data
    count = e + p * (3 + e)
    found = text.count("\0") + 1 if text or count else 0
    if found != count:
        raise CacheFormatError(f"expected {count} strings, found {found}")
    head = e + 3 * p
    strings = text.split("\0", head) if head else []
    del text
    # the last piece holds the P*E titles; there is none when P*E is 0
    titles = strings.pop() if p * e else ""
    editions = strings[:e]
    ids = strings[e:e + p]
    countries = strings[e + p:e + 2 * p]
    genders = strings[e + 2 * p:]
    fields = list(zip(countries, [y or None for y in years], genders))
    return ids, fields, editions, titles


def content_hash(path: str | Path) -> str:
    """SHA-256 of a file's raw bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def artifact_path(cache_dir: str | Path, suffix: str, *inputs) -> Path:
    """``{key}.{suffix}`` in ``cache_dir``, keyed by every input that shapes it.

    The key is the first 32 hex digits of the SHA-256 of the inputs' ``str``
    joined by ``:``.
    """
    raw = ":".join(map(str, inputs)).encode()
    return Path(cache_dir) / f"{hashlib.sha256(raw).hexdigest()[:32]}.{suffix}"
