"""CSV and JSON emission for pipeline outputs, with atomic file replacement.

Every writer produces byte-identical output for identical inputs; floats are
rendered with ``repr`` so emitted values round-trip exactly.  The table
writers hand ``csv.writer`` plain values, which writes a float by ``repr``
and ``None`` as an empty field.  Top-list CSV is also re-ingestible: reading
an emitted file reproduces the in-memory list.  The culture writers take the
culture weight matrix or the :class:`~gmrank.cultures.CultureRanks` of it.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .aggregate import DistributionTable, GlobalEntry, LanguageCounts
from .cultures import CULTURE_CODES, CultureRanks, export_matrix_by_rank
from .rank import RankIndex, RankVector, TwoDRankResult
from .registry import PersonRegistry, TopList, checked_rows, ranked_rows


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write to a sibling temp file and rename into place on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        mode = "wb" if binary else "w"
        with os.fdopen(fd, mode, encoding=None if binary else "utf-8",
                       newline=None if binary else "") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- rank orderings ----------------------------------------------------------

def _label_field(label: str) -> str:
    """``label`` as a CSV field.  Labels hold no whitespace, so only one
    holding ``,`` or ``"`` is quoted."""
    if "," in label or '"' in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def write_rank_csv(stream: IO[str], vector: RankVector, index: RankIndex,
                   labels: tuple[str, ...] | None = None) -> None:
    """Rows ``node_id,label,probability,rank`` in rank order."""
    stream.write("node_id,label,probability,rank\n")
    rows = ranked_rows(index.ordering, vector.probabilities)
    for rank, (node, probability) in enumerate(rows, start=1):
        label = _label_field(labels[node]) if labels is not None else ""
        stream.write(f"{node},{label},{probability!r},{rank}\n")


def write_two_d_rank_csv(stream: IO[str], kp: RankIndex, kc: RankIndex,
                         result: TwoDRankResult,
                         labels: tuple[str, ...] | None = None) -> None:
    """Rows ``node_id,label,k,kstar,kprime`` in 2DRank order."""
    stream.write("node_id,label,k,kstar,kprime\n")
    for node, k, kstar, kprime in ranked_rows(
            result.ordering, kp.position, kc.position, result.kprime):
        label = _label_field(labels[node]) if labels is not None else ""
        stream.write(f"{node},{label},{k},{kstar},{kprime}\n")


# -- top lists ---------------------------------------------------------------

TOPLIST_HEADER = ("edition", "algorithm", "person_id", "title", "rank",
                  "culture", "country", "century", "gender")


def write_toplist_csv(stream: IO[str], toplist: TopList,
                      registry: PersonRegistry) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TOPLIST_HEADER)
    for person_id, rank in toplist.entries:
        person = registry.get(person_id)
        writer.writerow((
            toplist.edition, toplist.algorithm, person_id,
            person.title_in(toplist.edition), rank,
            person.culture, person.birth_country, person.century,
            person.gender))


def read_toplist_csv(stream: IO[str], edition: str,
                     algorithm: str) -> TopList:
    """Rebuild the top list of ``edition``/``algorithm`` from an emitted CSV.

    Exact inverse of the writer; a header-only file is an empty list.
    Raises ValueError, naming the line, on a malformed header or row, or on
    a row of another edition or algorithm.
    """
    reader = csv.reader(stream)
    rows = checked_rows(reader, "line")
    header = tuple(next(rows, ()))
    if header != TOPLIST_HEADER:
        raise ValueError("line 1: expected the top-list header, got "
                         f"{header or 'an empty file'}")
    entries: list[tuple[str, int]] = []
    for row in rows:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(TOPLIST_HEADER):
            raise ValueError(f"line {line}: expected {len(TOPLIST_HEADER)} "
                             f"fields, got {len(row)}")
        if (row[0], row[1]) != (edition, algorithm):
            raise ValueError(
                f"line {line}: mixed edition/algorithm: expected "
                f"{edition}/{algorithm}, got {row[0]}/{row[1]}")
        try:
            rank = int(row[4])
        except ValueError:
            raise ValueError(f"line {line}: rank must be an integer, "
                             f"got {row[4]!r}") from None
        entries.append((row[2], rank))
    return TopList(edition=edition, algorithm=algorithm, entries=tuple(entries))


# -- global ranking ----------------------------------------------------------

GLOBAL_HEADER = ("rank", "person_id", "theta", "n_appear", "mean_rank",
                 "class", "gender", "culture", "century")


def write_global_csv(stream: IO[str], entries: Sequence[GlobalEntry],
                     classes: dict[str, str],
                     registry: PersonRegistry) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(GLOBAL_HEADER)
    for position, entry in enumerate(entries, start=1):
        person = registry.get(entry.person_id)
        writer.writerow((
            position, entry.person_id, entry.theta, entry.n_appear,
            entry.mean_rank, classes[entry.person_id], person.gender,
            person.culture, person.century))


def write_culture_slices_csv(stream: IO[str],
                             slices: dict[str, list[GlobalEntry]]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("culture", "rank", "person_id", "theta", "n_appear",
                     "mean_rank"))
    for culture in sorted(slices):
        for position, entry in enumerate(slices[culture], start=1):
            writer.writerow((culture, position, entry.person_id, entry.theta,
                             entry.n_appear, entry.mean_rank))


# -- distribution tables -----------------------------------------------------

DISTRIBUTION_HEADER = ("row_key", "col_key", "value", "normalization")


def write_distribution_csv(stream: IO[str],
                           tables: Sequence[DistributionTable]) -> None:
    """Long-form rows for one or more variants of the same table.

    Each table's cells go row by row, then column by column; an absent cell
    is skipped and a ``None`` cell has an empty value.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DISTRIBUTION_HEADER)
    for table in tables:
        cells = table.cells
        for row in table.row_keys:
            for col in table.col_keys:
                if (row, col) in cells:
                    writer.writerow((row, col, cells[row, col],
                                     table.normalization))


# benchmarks/spans.py looks up each traced name with no default: keep both
write_locality_csv = write_gender_csv = write_distribution_csv


def write_language_counts_csv(stream: IO[str],
                              rows: Sequence[LanguageCounts]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("language", "n1", "n2", "n3", "n4"))
    for row in rows:
        writer.writerow((row.language, row.n1, row.n2, row.n3, row.n4))


def write_overlap_json(stream: IO[str], report: dict) -> None:
    json.dump(report, stream, indent=2, sort_keys=True)
    stream.write("\n")


# -- culture network ---------------------------------------------------------

def write_culture_network_csv(stream: IO[str], weights: np.ndarray) -> None:
    """Nonzero link weights as ``from,to,weight`` in code order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("from", "to", "weight"))
    for source, row in zip(CULTURE_CODES, weights.tolist()):
        for target, w in zip(CULTURE_CODES, row):
            if w:
                writer.writerow((source, target, w))


def write_culture_ranks_csv(stream: IO[str], ranks: CultureRanks) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("culture", "k", "kstar", "kprime", "pagerank_prob",
                     "cheirank_prob"))
    writer.writerows(zip(CULTURE_CODES, ranks.k.tolist(),
                         ranks.kstar.tolist(), ranks.kprime.tolist(),
                         ranks.pagerank_probs.tolist(),
                         ranks.cheirank_probs.tolist()))


def write_culture_matrix_csv(stream: IO[str], ranks: CultureRanks) -> None:
    """The Google matrix with rows/columns permuted into PageRank order."""
    permuted = export_matrix_by_rank(ranks.matrix, ranks.pagerank_ordering)
    codes = [CULTURE_CODES[i] for i in ranks.pagerank_ordering.tolist()]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["culture"] + codes)
    for code, row in zip(codes, permuted.tolist()):
        writer.writerow([code] + row)
