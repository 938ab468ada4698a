"""Person metadata and the country-to-language culture map.

Persons are keyed by their canonical English article title; per-edition
localized titles join rank orderings back to persons.  Culture is the
language spoken most widely in the birth country, with WR as the catch-all
for countries outside the 24 covered languages.  The default culture map
ships as package data.
"""
from __future__ import annotations

import csv
import logging
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import compress
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

# the 24 covered language editions, catalog order
EDITION_CODES = (
    "EN", "NL", "DE", "FR", "ES", "IT", "PT", "EL", "DA", "SV", "PL", "HU",
    "RU", "HE", "TR", "AR", "FA", "HI", "MS", "TH", "VI", "ZH", "KO", "JA",
)
WORLD = "WR"
UNKNOWN_COUNTRY = "XX"

GENDERS = ("male", "female", "unknown")

PAGERANK_LIST = "pagerank"
TWODRANK_LIST = "2drank"
LIST_ALGORITHMS = (PAGERANK_LIST, TWODRANK_LIST)


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


@dataclass(frozen=True)
class CountryCultureMap:
    """Country code -> language code; anything unmapped resolves to WR."""

    entries: Mapping[str, str]

    def culture_of(self, country: str) -> str:
        return self.entries.get(country, WORLD)


@dataclass(frozen=True)
class Person:
    person_id: str
    titles: Mapping[str, str]           # edition code -> localized title
    birth_country: str
    birth_year: int | None              # None = unknown; 0 is forbidden
    gender: str
    culture: str

    def title_in(self, edition: str) -> str | None:
        return self.titles.get(edition)


@dataclass(frozen=True)
class TopList:
    """Per-edition, per-algorithm ordered person list with ranks 1..len."""

    edition: str
    algorithm: str
    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.edition not in EDITION_CODES:
            raise ValueError(f"unknown edition code {self.edition!r}")
        if self.algorithm not in LIST_ALGORITHMS:
            raise ValueError(f"unknown list algorithm {self.algorithm!r}")
        if len(self.entries) > 100:
            raise ValueError("top lists carry at most 100 entries")
        ranks = [r for _, r in self.entries]
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError("entry ranks must be exactly 1..len with no gaps")
        ids = [p for p, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate person_id in top list")

    def __len__(self) -> int:
        return len(self.entries)


def check_toplists(toplists: Sequence[TopList]) -> None:
    """Raise ValueError unless the lists share one algorithm and no edition
    has two."""
    algorithms = {t.algorithm for t in toplists}
    if len(algorithms) > 1:
        raise ValueError(f"mixed list algorithms: {sorted(algorithms)}")
    editions: set[str] = set()
    for toplist in toplists:
        if toplist.edition in editions:
            raise ValueError(
                f"more than one list for edition {toplist.edition}")
        editions.add(toplist.edition)


def appearances(toplists: Sequence[TopList],
                registry: PersonRegistry) -> Iterator[tuple[str, Person]]:
    """``(edition, person)`` for every entry of every list, in list order.

    An unregistered person raises KeyError when the walk reaches it.
    """
    check_toplists(toplists)
    get = registry.get
    for toplist in toplists:
        for person_id, _ in toplist.entries:
            yield toplist.edition, get(person_id)


class PersonRegistry:
    """Immutable person store: validated fields plus per-edition title indexes.

    Built by :func:`load_persons`, which has checked every row and every
    title, or from a cache artifact of that function's columns; the
    constructor takes those columns and checks only their width.  Each
    edition's title index is built, and checked for a repeated title, on
    its first :meth:`title_index`, and a :class:`Person` on its first
    :meth:`get`; both are kept.
    """

    def __init__(self, ids: list[str],
                 fields: list[tuple[str, int | None, str]],
                 editions: list[str], titles: list[str],
                 culture_map: CountryCultureMap):
        if len(titles) != len(ids) * len(editions):
            raise ValueError("titles must hold one title per person and edition")
        self._ids = ids
        self._fields = fields           # (birth_country, birth_year, gender)
        self._editions = editions
        # stripped titles row by row: person r's are titles[r*E:(r+1)*E] for
        # the E editions, so building one Person reads one contiguous slice
        self._titles = titles
        self._culture_map = culture_map
        self._row = dict(zip(ids, range(len(ids))))
        self._built: dict[str, Person] = {}
        self._by_title: dict[str, dict[str, str]] = {}

    def columns(self) -> tuple[list[str], list[tuple[str, int | None, str]],
                               list[str], list[str]]:
        """``(ids, fields, editions, titles)``, as the constructor takes them."""
        return self._ids, self._fields, self._editions, self._titles

    def _keyed_titles(self, code: str) -> tuple[list[str], list[str]]:
        """One edition's non-empty titles and their owners.

        An empty EN title, or a missing EN column, is the person_id.
        """
        ids = self._ids
        if code not in self._editions:
            return (ids, ids) if code == "EN" else ([], [])
        column = self._titles[self._editions.index(code)::len(self._editions)]
        if code == "EN":
            return [t or p for t, p in zip(column, ids)], ids
        return list(compress(column, column)), list(compress(ids, column))

    def _check_unique(self) -> None:
        """Build every title index; raise on a duplicate id or title."""
        if len(self._row) != len(self._ids):
            self._raise_first_duplicate()
        for code in dict.fromkeys((*self._editions, "EN")):
            self.title_index(code)

    def _titles_of(self, row: int, person_id: str) -> dict[str, str]:
        width = len(self._editions)
        values = self._titles[row * width:(row + 1) * width]
        titles = dict(compress(zip(self._editions, values), values))
        titles.setdefault("EN", person_id)
        return titles

    def _raise_first_duplicate(self) -> None:
        """Name the first duplicate id or title in file order."""
        seen_ids: set[str] = set()
        seen_titles: dict[str, dict[str, str]] = {}
        for row, person_id in enumerate(self._ids):
            if person_id in seen_ids:
                raise ValueError(f"duplicate person_id {person_id!r}")
            seen_ids.add(person_id)
            for code, title in self._titles_of(row, person_id).items():
                index = seen_titles.setdefault(code, {})
                key = _nfc(title)
                if key in index:
                    raise ValueError(
                        f"duplicate title {title!r} in edition {code}: "
                        f"{index[key]!r} vs {person_id!r}")
                index[key] = person_id

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, person_id: str) -> bool:
        return person_id in self._row

    def get(self, person_id: str) -> Person:
        person = self._built.get(person_id)
        if person is None:
            row = self._row[person_id]
            country, year, gender = self._fields[row]
            person = self._built[person_id] = Person(
                person_id=person_id,
                titles=self._titles_of(row, person_id),
                birth_country=country,
                birth_year=year,
                gender=gender,
                culture=self._culture_map.culture_of(country),
            )
        return person

    def title_index(self, edition: str) -> Mapping[str, str]:
        """NFC-normalized localized title -> person_id for one edition.

        Raises ValueError naming the first duplicate id or title in file
        order when two persons share a title in this edition.
        """
        index = self._by_title.get(edition)
        if index is None:
            titles, owners = self._keyed_titles(edition)
            index = _index_titles(titles, owners)
            if len(index) != len(titles):
                self._raise_first_duplicate()
            self._by_title[edition] = index
        return index


def _index_titles(titles: list[str], owners: list[str]) -> dict[str, str]:
    """NFC-normalized title -> owner; shorter than ``titles`` on a duplicate."""
    keys = titles if "".join(titles).isascii() else list(map(_nfc, titles))
    return dict(zip(keys, owners))


def century_of(birth_year: int) -> int:
    """Signed century of a signed year; there is no year 0.

    Years 1..100 are century 1, 101..200 century 2; years -1..-100 are
    century -1 (ceiling convention on both sides of the era boundary).
    """
    year = int(birth_year)
    if year == 0:
        raise ValueError("year 0 does not exist")
    if year > 0:
        return (year + 99) // 100
    return -((-year + 99) // 100)


def load_culture_map(stream: IO[str] | Iterable[str]) -> CountryCultureMap:
    """Parse ``CC<TAB>LC`` lines; ``#`` comments allowed."""
    entries: dict[str, str] = {}
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"culture map line {line_no}: expected CC<TAB>LC")
        cc, lc = parts[0].strip(), parts[1].strip()
        if lc != WORLD and lc not in EDITION_CODES:
            raise ValueError(f"culture map line {line_no}: unknown language {lc!r}")
        if cc in entries:
            raise ValueError(f"culture map line {line_no}: duplicate country {cc!r}")
        entries[cc] = lc
    return CountryCultureMap(entries=entries)


@lru_cache(maxsize=1)
def default_culture_map() -> CountryCultureMap:
    ref = resources.files("gmrank").joinpath("data/culture_map.tsv")
    with ref.open("r", encoding="utf-8") as f:
        return load_culture_map(f)


def checked_rows(reader, where: str) -> Iterator[list[str]]:
    """The rows of a ``csv.reader``; a ``csv.Error`` becomes a ValueError.

    The error names the line as ``{where} {reader.line_num}``: a field over
    ``csv.field_size_limit()`` is bad input, not a crash.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{where} {reader.line_num}: {exc}") from None


_FIXED_COLUMNS = ("person_id", "birth_country", "birth_year", "gender")
_INT64 = range(-2**63, 2**63)


def load_persons(stream: IO[str] | Iterable[str],
                 culture_map: CountryCultureMap | None = None) -> PersonRegistry:
    """Load the person registry from TSV.

    Expected header: ``person_id  birth_country  birth_year  gender`` followed
    by one column per edition code holding the localized article title (empty
    when the person has no article there).  An empty EN title defaults to the
    person_id itself, which by construction is the English article title.
    Every row is checked, and no id or title may repeat; a row error names
    the line the bad row ends on.  No field may hold a NUL character, and
    every birth year must fit int64, so the cache can store every file
    this accepts.
    """
    if culture_map is None:
        culture_map = default_culture_map()
    reader = csv.reader(stream, delimiter="\t")
    rows = checked_rows(reader, "persons line")
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError("persons file is empty") from None
    header = [h.strip() for h in header]
    if tuple(header[:4]) != _FIXED_COLUMNS:
        raise ValueError(
            f"persons header must start with {_FIXED_COLUMNS}, got {header[:4]}")
    edition_columns = header[4:]
    for code in edition_columns:
        if code not in EDITION_CODES:
            raise ValueError(f"persons header: unknown edition column {code!r}")
    if len(set(edition_columns)) != len(edition_columns):
        raise ValueError("persons header: duplicate edition column")

    ids: list[str] = []
    fields: list[tuple[str, int | None, str]] = []
    titles: list[str] = []
    for row in rows:
        line_no = reader.line_num           # the line the row ends on
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ValueError(
                f"persons line {line_no}: expected {len(header)} fields, "
                f"got {len(row)}")
        if "\0" in "".join(row):
            raise ValueError(
                f"persons line {line_no}: a field holds a NUL character")
        person_id = row[0].strip()
        if not person_id:
            raise ValueError(f"persons line {line_no}: empty person_id")
        birth_country = row[1].strip()
        if not birth_country:
            raise ValueError(
                f"persons line {line_no}: missing birth_country "
                f"(use {UNKNOWN_COUNTRY} for unknown)")
        year_text = row[2].strip()
        if year_text:
            try:
                birth_year: int | None = int(year_text)
            except ValueError:
                raise ValueError(f"persons line {line_no}: birth_year must be "
                                 f"an integer, got {year_text!r}") from None
            if birth_year == 0:
                raise ValueError(f"persons line {line_no}: birth_year 0 is invalid")
            if birth_year not in _INT64:
                raise ValueError(f"persons line {line_no}: birth_year "
                                 f"{birth_year} does not fit in 64 bits")
        else:
            birth_year = None
        gender = row[3].strip().lower() or "unknown"
        if gender not in GENDERS:
            raise ValueError(f"persons line {line_no}: unknown gender {gender!r}")
        ids.append(person_id)
        fields.append((birth_country, birth_year, gender))
        titles += map(str.strip, row[4:])
    registry = PersonRegistry(ids, fields, edition_columns, titles, culture_map)
    registry._check_unique()
    return registry


def select_top_people(ranked, labels: tuple[str, ...],
                      registry: PersonRegistry, edition: str,
                      algorithm: str, n: int = 100) -> TopList:
    """Walk a full rank ordering and keep the first ``n`` registered persons.

    ``ranked`` is anything exposing an ``ordering`` attribute (a RankIndex or
    a TwoDRankResult) or a plain node-id array.  Node labels are matched
    against the registry's localized titles for ``edition`` by exact byte
    equality after NFC normalization.
    """
    ordering = getattr(ranked, "ordering", ranked)
    ordering = np.asarray(ordering)
    index = registry.title_index(edition)
    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for node in ordering.tolist():
        person_id = index.get(_nfc(labels[node]))
        if person_id is None or person_id in seen:
            continue
        seen.add(person_id)
        entries.append((person_id, len(entries) + 1))
        if len(entries) == n:
            break
    if len(entries) < n:
        log.warning("edition %s: only %d of %d requested persons found",
                    edition, len(entries), n)
    return TopList(edition=edition, algorithm=algorithm, entries=tuple(entries))
