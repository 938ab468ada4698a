"""CSV and JSON emission for pipeline outputs, with atomic file replacement.

Every writer produces byte-identical output for identical inputs; floats are
rendered with ``repr`` so emitted values round-trip exactly.  Top-list CSV is
also re-ingestible: reading an emitted file reproduces the in-memory list.
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

from .aggregate import (DistributionTable, GenderDistribution, GlobalEntry,
                        LanguageCounts, LocalityRatios)
from .cultures import (CULTURE_CODES, CultureNetwork, CultureRanks,
                       export_matrix_by_rank)
from .registry import PersonRegistry, TopList, century_of


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


def _fmt(value: float) -> str:
    return repr(float(value))


def _century_field(registry: PersonRegistry, person_id: str) -> str:
    year = registry.get(person_id).birth_year
    return "" if year is None else str(century_of(year))


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
            person.title_in(toplist.edition) or "", rank, person.culture,
            person.birth_country, _century_field(registry, person_id),
            person.gender))


def read_toplist_csv(stream: IO[str]) -> TopList:
    """Rebuild a TopList from an emitted CSV; exact inverse of the writer."""
    reader = csv.reader(stream)
    header = tuple(next(reader))
    if header != TOPLIST_HEADER:
        raise ValueError(f"unexpected top-list header: {header}")
    edition: str | None = None
    algorithm: str | None = None
    entries: list[tuple[str, int]] = []
    for row in reader:
        if not row:
            continue
        if edition is None:
            edition, algorithm = row[0], row[1]
        elif (row[0], row[1]) != (edition, algorithm):
            raise ValueError("mixed edition/algorithm in one top-list file")
        entries.append((row[2], int(row[4])))
    if edition is None:
        raise ValueError("top-list file has no rows")
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
            _fmt(entry.mean_rank), classes[entry.person_id], person.gender,
            person.culture, _century_field(registry, entry.person_id)))


def write_culture_slices_csv(stream: IO[str],
                             slices: dict[str, list[GlobalEntry]]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("culture", "rank", "person_id", "theta", "n_appear",
                     "mean_rank"))
    for culture in sorted(slices):
        for position, entry in enumerate(slices[culture], start=1):
            writer.writerow((culture, position, entry.person_id, entry.theta,
                             entry.n_appear, _fmt(entry.mean_rank)))


# -- distribution tables -----------------------------------------------------

DISTRIBUTION_HEADER = ("row_key", "col_key", "value", "normalization")


def write_distribution_csv(stream: IO[str],
                           tables: Sequence[DistributionTable]) -> None:
    """Long-form rows for one or more variants of the same table."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DISTRIBUTION_HEADER)
    for table in tables:
        for row in table.row_keys:
            for col in table.col_keys:
                value = table.cells.get((row, col))
                if value is None:
                    continue
                writer.writerow((row, col, _fmt(value), table.normalization))


def write_locality_csv(stream: IO[str], ratios: LocalityRatios) -> None:
    """All (edition, century) cells; empty value marks 'no figures at all'."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DISTRIBUTION_HEADER)
    for edition in ratios.editions:
        for century in ratios.centuries:
            value = ratios.value(edition, century)
            writer.writerow((edition, century,
                             "" if value is None else _fmt(value), "ratio"))


def write_gender_csv(stream: IO[str], dist: GenderDistribution) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DISTRIBUTION_HEADER)
    for edition in dist.female_counts:
        writer.writerow((edition, "female", _fmt(dist.female_counts[edition]),
                         "raw"))
        writer.writerow((edition, "male", _fmt(dist.male_counts[edition]),
                         "raw"))
        writer.writerow((edition, "unknown",
                         _fmt(dist.unknown_counts[edition]), "raw"))
    writer.writerow(("mean", "female", _fmt(dist.mean_female_count),
                     "edition-averaged"))
    for century in sorted(dist.century_ratio):
        ratio = dist.century_ratio[century]
        writer.writerow((century, "female_ratio",
                         "" if ratio is None else _fmt(ratio), "pooled"))


def write_language_counts_csv(stream: IO[str],
                              rows: Sequence[LanguageCounts]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("language", "n1", "n2", "n3", "n4"))
    for row in rows:
        writer.writerow((row.language,
                         "" if row.n1 is None else row.n1,
                         "" if row.n2 is None else row.n2,
                         "" if row.n3 is None else row.n3,
                         "" if row.n4 is None else row.n4))


def write_overlap_json(stream: IO[str], report: dict) -> None:
    json.dump(report, stream, indent=2, sort_keys=True)
    stream.write("\n")


# -- culture network ---------------------------------------------------------

def write_culture_network_csv(stream: IO[str], net: CultureNetwork) -> None:
    """Nonzero link weights as ``from,to,weight`` in code order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("from", "to", "weight"))
    for a, source in enumerate(CULTURE_CODES):
        for b, target in enumerate(CULTURE_CODES):
            w = int(net.weights[a, b])
            if w:
                writer.writerow((source, target, w))


def write_culture_ranks_csv(stream: IO[str], ranks: CultureRanks) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("culture", "k", "kstar", "kprime", "pagerank_prob",
                     "cheirank_prob"))
    for i, code in enumerate(ranks.codes):
        writer.writerow((code, int(ranks.k[i]), int(ranks.kstar[i]),
                         int(ranks.kprime[i]), _fmt(ranks.pagerank_probs[i]),
                         _fmt(ranks.cheirank_probs[i])))


def write_culture_matrix_csv(stream: IO[str], matrix: np.ndarray,
                             ordering: np.ndarray) -> None:
    """Dense matrix with rows/columns permuted into PageRank order."""
    permuted = export_matrix_by_rank(matrix, ordering)
    codes = [CULTURE_CODES[i] for i in np.asarray(ordering).tolist()]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["culture"] + codes)
    for i, code in enumerate(codes):
        writer.writerow([code] + [_fmt(v) for v in permuted[i]])
