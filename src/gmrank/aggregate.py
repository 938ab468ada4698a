"""Cross-edition aggregation of per-edition top-person lists.

Combines the per-edition, per-algorithm lists into global rankings (score
theta = sum over editions of 101 - rank), appearance statistics, and the
spatial / temporal / gender / locality distribution tables.  All functions
are pure; normalized table variants are new objects, never in-place edits.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import IO, Iterable, Mapping, Sequence

from .registry import (EDITION_CODES, PAGERANK_LIST, WORLD, PersonRegistry,
                       TopList, appearances, check_toplists, _nfc)

GLOBAL = "global"
LOCAL_HIGH = "local_high"
LOCAL_LOW = "local_low"
NA_MIN = 18        # editions a global figure appears in, at least
K_MAX = 50.0       # mean rank of a global or locally-high figure, at most


@dataclass(frozen=True)
class GlobalEntry:
    """One person's cross-edition score: theta, appearances, mean rank."""

    person_id: str
    theta: int
    n_appear: int
    mean_rank: float


@dataclass(frozen=True)
class DistributionTable:
    """Sparse (row, column) table; rows are editions, columns e.g. countries.

    An absent cell is empty; a cell holding ``None`` has no figures at all.
    """

    row_keys: tuple
    col_keys: tuple
    cells: Mapping[tuple, float | None]
    normalization: str = "raw"

    def value(self, row, col) -> float | None:
        return self.cells.get((row, col))


def _count_cells(table: DistributionTable, caller: str):
    """The cells of a table of counts; a ``None`` cell is a ``ValueError``."""
    empty = next((key for key, v in table.cells.items() if v is None), None)
    if empty is not None:
        raise ValueError(
            f"{caller} takes a table of counts; cell {empty} holds None")
    return table.cells.items()


def column_normalize(table: DistributionTable) -> DistributionTable:
    """Divide every column by its total; all-zero columns stay zero."""
    totals = dict.fromkeys(table.col_keys, 0)
    for (_, c), v in _count_cells(table, "column_normalize"):
        totals[c] += v
    cells = {
        (r, c): v / totals[c]
        for (r, c), v in table.cells.items()
        if totals[c] > 0
    }
    return DistributionTable(
        row_keys=table.row_keys, col_keys=table.col_keys, cells=cells,
        normalization="column-normalized")


def edition_average(table: DistributionTable) -> DistributionTable:
    """Single-row table with each column averaged over all edition rows."""
    n_rows = len(table.row_keys)
    cells: dict[tuple, float] = {}
    for (_, c), v in _count_cells(table, "edition_average"):
        cells[("average", c)] = cells.get(("average", c), 0.0) + v
    cells = {k: v / n_rows for k, v in cells.items()}
    return DistributionTable(
        row_keys=("average",), col_keys=table.col_keys, cells=cells,
        normalization="edition-averaged")


def _global_entry(person_id: str, ranks: Sequence[int]) -> GlobalEntry:
    return GlobalEntry(
        person_id=person_id,
        theta=sum(101 - r for r in ranks),
        n_appear=len(ranks),
        mean_rank=sum(ranks) / len(ranks),
    )


def theta_score(person_id: str, toplists: Sequence[TopList]) -> GlobalEntry:
    """Score one person over the editions where they appear.

    theta = sum over those editions of (101 - rank); n_appear counts the
    editions; mean_rank is the arithmetic mean of the ranks.  The pipeline
    scores everyone at once through :func:`global_ranking`; this one-person
    form is the oracle its tie-heavy property test compares against.
    """
    ranks = [rank for toplist in toplists
             for pid, rank in toplist.entries if pid == person_id]
    if not ranks:
        raise ValueError(f"{person_id!r} appears in no list")
    return _global_entry(person_id, ranks)


def global_ranking(toplists: Sequence[TopList]) -> list[GlobalEntry]:
    """All persons of all lists, descending theta.

    Ties break by higher n_appear, then lower mean rank, then person_id.
    """
    if not toplists:
        raise ValueError("at least one top list is required")
    check_toplists(toplists)
    ranks: dict[str, list[int]] = {}
    for toplist in toplists:
        for person_id, rank in toplist.entries:
            ranks.setdefault(person_id, []).append(rank)
    entries = [_global_entry(pid, r) for pid, r in ranks.items()]
    entries.sort(key=lambda e: (-e.theta, -e.n_appear, e.mean_rank, e.person_id))
    return entries


def filter_by_gender(entries: Sequence[GlobalEntry], registry: PersonRegistry,
                     gender: str) -> list[GlobalEntry]:
    return [e for e in entries if registry.get(e.person_id).gender == gender]


def per_culture_top(entries: Sequence[GlobalEntry], registry: PersonRegistry,
                    n: int = 10) -> dict[str, list[GlobalEntry]]:
    """Top-n slice of the global ranking for every culture (incl. WR)."""
    slices: dict[str, list[GlobalEntry]] = {c: [] for c in EDITION_CODES}
    slices[WORLD] = []
    for entry in entries:
        culture = registry.get(entry.person_id).culture
        bucket = slices.setdefault(culture, [])
        if len(bucket) < n:
            bucket.append(entry)
    return slices


def classify_figures(entries: Sequence[GlobalEntry]) -> dict[str, str]:
    """Split persons into global / locally-high / locally-low classes.

    Global means appearing in at least ``NA_MIN`` editions with mean rank
    at most ``K_MAX``; locally-high misses the appearance bar but keeps the
    rank bar; everything else is locally-low.
    """
    classes: dict[str, str] = {}
    for entry in entries:
        if entry.mean_rank <= K_MAX:
            classes[entry.person_id] = (
                GLOBAL if entry.n_appear >= NA_MIN else LOCAL_HIGH)
        else:
            classes[entry.person_id] = LOCAL_LOW
    return classes


def _edition_rows(toplists: Sequence[TopList]) -> tuple[str, ...]:
    present = {t.edition for t in toplists}
    return tuple(c for c in EDITION_CODES if c in present)


def _table(toplists: Sequence[TopList], counts: Counter) -> DistributionTable:
    """Raw ``(edition, column)`` counts, one row per edition with a list."""
    return DistributionTable(
        row_keys=_edition_rows(toplists),
        col_keys=tuple(sorted({col for _, col in counts})),
        cells={key: float(n) for key, n in counts.items()})


def spatial_distribution(toplists: Sequence[TopList],
                         registry: PersonRegistry) -> DistributionTable:
    """Raw birth-country counts per edition (rows) and country (columns)."""
    return _table(toplists, Counter(
        (edition, person.birth_country)
        for edition, person in appearances(toplists, registry)))


def temporal_distribution(toplists: Sequence[TopList],
                          registry: PersonRegistry) -> DistributionTable:
    """Raw birth-century counts per edition; unknown birth years are skipped."""
    return _table(toplists, Counter(
        (edition, person.century)
        for edition, person in appearances(toplists, registry)
        if person.century is not None))


def locality_ratio(toplists: Sequence[TopList],
                   registry: PersonRegistry) -> DistributionTable:
    """r = M/N per (edition, century): M own-language figures, N all figures.

    Every (edition, century) cell is present; ``None`` marks one with no
    figures at all, plotting sentinels are left to consumers.
    """
    totals: dict[tuple[str, int], int] = {}
    own: dict[tuple[str, int], int] = {}
    for edition, person in appearances(toplists, registry):
        if person.century is None:
            continue
        key = (edition, person.century)
        totals[key] = totals.get(key, 0) + 1
        if person.culture == edition:
            own[key] = own.get(key, 0) + 1
    editions = _edition_rows(toplists)
    centuries = tuple(sorted({century for _, century in totals}))
    cells = {key: own.get(key, 0) / totals[key] if key in totals else None
             for key in product(editions, centuries)}
    return DistributionTable(editions, centuries, cells, "ratio")


def gender_distribution(toplists: Sequence[TopList],
                        registry: PersonRegistry) -> list[DistributionTable]:
    """Counts per edition and the per-century ratio female/(female+male).

    Three tables: the raw counts, one row per edition and columns female,
    male, unknown; the edition-averaged female count as cell ``("mean",
    "female")``; and the ratio pooled across editions as cells ``(century,
    "female_ratio")``.  Persons of unknown gender are counted but excluded
    from ratios, persons of unknown birth year from the per-century tallies.
    """
    editions = _edition_rows(toplists)
    genders = ("female", "male", "unknown")
    counts = {gender: dict.fromkeys(editions, 0) for gender in genders}
    by_century: dict[tuple[int, str], int] = {}
    for edition, person in appearances(toplists, registry):
        counts[person.gender][edition] += 1
        if person.century is not None and person.gender != "unknown":
            key = (person.century, person.gender)
            by_century[key] = by_century.get(key, 0) + 1
    centuries = tuple(sorted({century for century, _ in by_century}))
    ratio = {}
    for century in centuries:
        f = by_century.get((century, "female"), 0)
        ratio[century, "female_ratio"] = f / (
            f + by_century.get((century, "male"), 0))
    raw = {(e, g): float(counts[g][e]) for e in editions for g in genders}
    mean = sum(counts["female"].values()) / len(editions) if editions else 0.0
    return [DistributionTable(editions, genders, raw),
            DistributionTable(("mean",), ("female",), {("mean", "female"): mean},
                              "edition-averaged"),
            DistributionTable(centuries, ("female_ratio",), ratio, "pooled")]


def overlap(list_a: Iterable, list_b: Iterable) -> int:
    """Number of shared person or node ids; strings are compared in NFC."""
    def nfc(items: Iterable) -> set:
        return {_nfc(i) if isinstance(i, str) else i for i in items}
    return len(nfc(list_a) & nfc(list_b))


def load_reference_list(stream: IO[str] | Iterable[str]) -> list[str]:
    """One person name per line; blank lines and ``#`` comments are skipped."""
    names: list[str] = []
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        names.append(_nfc(line))
    return names


@dataclass(frozen=True)
class LanguageCounts:
    """Own-culture figure counts per language (global list and own edition)."""

    language: str
    n1: int | None      # in the global pagerank top 100
    n2: int | None      # in the language's own pagerank list
    n3: int | None      # in the global 2drank top 100
    n4: int | None      # in the language's own 2drank list


def language_representation(registry: PersonRegistry,
                            toplists: Sequence[TopList],
                            top: Sequence[GlobalEntry]) -> list[LanguageCounts]:
    """Per-language counts of own-culture figures (one row per language + WR).

    How many figures of each language's culture sit in ``top``, the head
    of the :func:`global_ranking` of ``toplists``, and how many sit in that
    language's own edition list.  The lists' algorithm picks the columns:
    n1/n2 for pagerank, n3/n4 for 2drank; the other pair is None, as are
    the counts of an edition without a list.  WR has no edition of its own.
    """
    if not toplists:
        raise ValueError("at least one top list is required")
    own_counts = dict.fromkeys((t.edition for t in toplists), 0)
    for edition, person in appearances(toplists, registry):
        if person.culture == edition:
            own_counts[edition] += 1
    global_counts: dict[str, int] = {}
    for entry in top:
        culture = registry.get(entry.person_id).culture
        global_counts[culture] = global_counts.get(culture, 0) + 1
    # appearances has checked that the lists share one algorithm
    pagerank = toplists[0].algorithm == PAGERANK_LIST

    rows = []
    for language in EDITION_CODES + (WORLD,):
        counted = global_counts.get(language, 0)
        own = None if language == WORLD else own_counts.get(language)
        rows.append(LanguageCounts(language, counted, own, None, None)
                    if pagerank else
                    LanguageCounts(language, None, None, counted, own))
    return rows
