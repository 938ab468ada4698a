"""Cross-edition aggregation of per-edition top-person lists.

Combines the per-edition, per-algorithm lists into global rankings (score
theta = sum over editions of 101 - rank), appearance statistics, and the
spatial / temporal / gender / locality distribution tables.  All functions
are pure; normalized table variants are new objects, never in-place edits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

from .registry import (EDITION_CODES, PAGERANK_LIST, WORLD, PersonRegistry,
                       TopList, century_of, check_toplists, _nfc)

GLOBAL = "global"
LOCAL_HIGH = "local_high"
LOCAL_LOW = "local_low"


@dataclass(frozen=True)
class GlobalEntry:
    """One person's cross-edition score: theta, appearances, mean rank."""

    person_id: str
    theta: int
    n_appear: int
    mean_rank: float


@dataclass(frozen=True)
class DistributionTable:
    """Sparse (row, column) table; rows are editions, columns the named axis."""

    axis: str                                   # "country" | "century" | ...
    row_keys: tuple
    col_keys: tuple
    cells: Mapping[tuple, float]
    normalization: str = "raw"


def column_normalize(table: DistributionTable) -> DistributionTable:
    """Divide every column by its total; all-zero columns stay zero."""
    totals = dict.fromkeys(table.col_keys, 0)
    for (_, c), v in table.cells.items():
        totals[c] += v
    cells = {
        (r, c): v / totals[c]
        for (r, c), v in table.cells.items()
        if totals[c] > 0
    }
    return DistributionTable(
        axis=table.axis, row_keys=table.row_keys, col_keys=table.col_keys,
        cells=cells, normalization="column-normalized")


def edition_average(table: DistributionTable) -> DistributionTable:
    """Single-row table with each column averaged over all edition rows."""
    n_rows = len(table.row_keys)
    cells: dict[tuple, float] = {}
    for (_, c), v in table.cells.items():
        cells[("average", c)] = cells.get(("average", c), 0.0) + v
    cells = {k: v / n_rows for k, v in cells.items()}
    return DistributionTable(
        axis=table.axis, row_keys=("average",), col_keys=table.col_keys,
        cells=cells, normalization="edition-averaged")


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


def classify_figures(entries: Sequence[GlobalEntry], na_min: int = 18,
                     k_max: float = 50.0) -> dict[str, str]:
    """Split persons into global / locally-high / locally-low classes.

    Global means appearing in at least ``na_min`` editions with mean rank
    at most ``k_max``; locally-high misses the appearance bar but keeps the
    rank bar; everything else is locally-low.
    """
    classes: dict[str, str] = {}
    for entry in entries:
        if entry.mean_rank <= k_max:
            classes[entry.person_id] = (
                GLOBAL if entry.n_appear >= na_min else LOCAL_HIGH)
        else:
            classes[entry.person_id] = LOCAL_LOW
    return classes


def _edition_rows(toplists: Sequence[TopList]) -> tuple[str, ...]:
    present = {t.edition for t in toplists}
    return tuple(c for c in EDITION_CODES if c in present)


def spatial_distribution(toplists: Sequence[TopList],
                         registry: PersonRegistry) -> DistributionTable:
    """Raw birth-country counts per edition (rows) and country (columns)."""
    check_toplists(toplists)
    cells: dict[tuple, float] = {}
    countries: set[str] = set()
    for toplist in toplists:
        for person_id, _ in toplist.entries:
            country = registry.get(person_id).birth_country
            countries.add(country)
            key = (toplist.edition, country)
            cells[key] = cells.get(key, 0.0) + 1.0
    return DistributionTable(
        axis="country", row_keys=_edition_rows(toplists),
        col_keys=tuple(sorted(countries)), cells=cells)


def temporal_distribution(toplists: Sequence[TopList],
                          registry: PersonRegistry) -> DistributionTable:
    """Raw birth-century counts per edition; unknown birth years are skipped."""
    check_toplists(toplists)
    cells: dict[tuple, float] = {}
    centuries: set[int] = set()
    for toplist in toplists:
        for person_id, _ in toplist.entries:
            year = registry.get(person_id).birth_year
            if year is None:
                continue
            century = century_of(year)
            centuries.add(century)
            key = (toplist.edition, century)
            cells[key] = cells.get(key, 0.0) + 1.0
    return DistributionTable(
        axis="century", row_keys=_edition_rows(toplists),
        col_keys=tuple(sorted(centuries)), cells=cells)


@dataclass(frozen=True)
class LocalityRatios:
    """Fraction of own-language figures per (edition, century).

    ``None`` marks cells with no figures at all for that edition and century;
    plotting sentinels are left to consumers.
    """

    editions: tuple[str, ...]
    centuries: tuple[int, ...]
    cells: Mapping[tuple[str, int], float | None]

    def value(self, edition: str, century: int) -> float | None:
        return self.cells.get((edition, century))


def locality_ratio(toplists: Sequence[TopList],
                   registry: PersonRegistry) -> LocalityRatios:
    """r = M/N per (edition, century): M own-language figures, N all figures."""
    check_toplists(toplists)
    totals: dict[tuple[str, int], int] = {}
    own: dict[tuple[str, int], int] = {}
    centuries: set[int] = set()
    for toplist in toplists:
        for person_id, _ in toplist.entries:
            person = registry.get(person_id)
            if person.birth_year is None:
                continue
            century = century_of(person.birth_year)
            centuries.add(century)
            key = (toplist.edition, century)
            totals[key] = totals.get(key, 0) + 1
            if person.culture == toplist.edition:
                own[key] = own.get(key, 0) + 1
    editions = _edition_rows(toplists)
    ordered_centuries = tuple(sorted(centuries))
    cells: dict[tuple[str, int], float | None] = {}
    for edition in editions:
        for century in ordered_centuries:
            n = totals.get((edition, century), 0)
            if n == 0:
                cells[(edition, century)] = None
            else:
                cells[(edition, century)] = own.get((edition, century), 0) / n
    return LocalityRatios(editions=editions, centuries=ordered_centuries,
                          cells=cells)


@dataclass(frozen=True)
class GenderDistribution:
    """Per-edition female counts plus the pooled per-century female ratio."""

    female_counts: Mapping[str, int]
    male_counts: Mapping[str, int]
    unknown_counts: Mapping[str, int]
    mean_female_count: float
    century_female: Mapping[int, int]
    century_male: Mapping[int, int]
    century_ratio: Mapping[int, float | None]


def gender_distribution(toplists: Sequence[TopList],
                        registry: PersonRegistry) -> GenderDistribution:
    """Counts per edition and the per-century ratio female/(female+male).

    The century ratio pools counts across editions; persons of unknown
    gender are counted separately and excluded from ratios, persons of
    unknown birth year are excluded from the per-century tallies.
    """
    check_toplists(toplists)
    editions = _edition_rows(toplists)
    female = {e: 0 for e in editions}
    male = {e: 0 for e in editions}
    unknown = {e: 0 for e in editions}
    century_female: dict[int, int] = {}
    century_male: dict[int, int] = {}
    for toplist in toplists:
        for person_id, _ in toplist.entries:
            person = registry.get(person_id)
            if person.gender == "female":
                female[toplist.edition] += 1
            elif person.gender == "male":
                male[toplist.edition] += 1
            else:
                unknown[toplist.edition] += 1
            if person.birth_year is None or person.gender == "unknown":
                continue
            century = century_of(person.birth_year)
            bucket = century_female if person.gender == "female" else century_male
            bucket[century] = bucket.get(century, 0) + 1
    centuries = sorted(set(century_female) | set(century_male))
    ratio: dict[int, float | None] = {}
    for century in centuries:
        f = century_female.get(century, 0)
        m = century_male.get(century, 0)
        ratio[century] = f / (f + m) if f + m else None
    mean_female = sum(female.values()) / len(editions) if editions else 0.0
    return GenderDistribution(
        female_counts=female, male_counts=male, unknown_counts=unknown,
        mean_female_count=mean_female, century_female=century_female,
        century_male=century_male, century_ratio=ratio)


def overlap(list_a: Iterable[str], list_b: Iterable[str]) -> int:
    """Number of shared person ids."""
    return len(set(list_a) & set(list_b))


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
                            top_n: int = 100) -> list[LanguageCounts]:
    """Per-language counts of own-culture figures (one row per language + WR).

    How many figures of each language's culture sit in the global top
    ``top_n`` of ``toplists``, and how many sit in that language's own
    edition list.  The lists' algorithm picks the columns: n1/n2 for
    pagerank, n3/n4 for 2drank; the other pair is None, as are the counts
    of an edition without a list.  WR has no edition of its own.
    """
    global_counts: dict[str, int] = {}
    for entry in global_ranking(toplists)[:top_n]:
        culture = registry.get(entry.person_id).culture
        global_counts[culture] = global_counts.get(culture, 0) + 1
    own_counts: dict[str, int] = {}
    for toplist in toplists:
        own_counts[toplist.edition] = sum(
            1 for person_id, _ in toplist.entries
            if registry.get(person_id).culture == toplist.edition)
    # global_ranking has checked that the lists share one algorithm
    pagerank = toplists[0].algorithm == PAGERANK_LIST

    rows = []
    for language in EDITION_CODES + (WORLD,):
        counted = global_counts.get(language, 0)
        own = None if language == WORLD else own_counts.get(language)
        rows.append(LanguageCounts(language, counted, own, None, None)
                    if pagerank else
                    LanguageCounts(language, None, None, counted, own))
    return rows
