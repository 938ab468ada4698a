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

# nodes of a rank ordering that :func:`ranked_rows` lists at a time
ORDERING_SLICE = 1 << 16


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


@dataclass(frozen=True)
class CountryCultureMap:
    """Country code -> language code; anything unmapped resolves to WR."""

    entries: Mapping[str, str]

    def culture_of(self, country: str) -> str:
        return self.entries.get(country, WORLD)


class _TitleColumn:
    """Every person's id and stripped titles, row by row, and each
    edition's column.

    Person ``r``'s title in the edition of column ``c`` is cell
    ``r * width + c``.  The cells come as a list, or still joined by NUL as
    a ``.gmrp`` read leaves them; a joined column is split, and its width
    checked, on its first :meth:`cells`, so a run that reads no title
    never walks it.  The one rule of reading them: an empty EN title, or a
    missing EN column, is the person_id; any other empty title is none.
    """

    __slots__ = ("columns", "width", "ids", "_cells")

    def __init__(self, editions: Sequence[str], titles: list[str] | str,
                 ids: list[str]):
        self.columns = dict(zip(editions, range(len(editions))))
        self.width = len(editions)
        self.ids = ids
        self._cells = titles
        if not isinstance(titles, str):
            self.cells()

    def cells(self) -> list[str]:
        count = len(self.ids) * self.width
        if isinstance(self._cells, str):
            joined = self._cells
            self._cells = joined.split("\0") if joined or count else []
        if len(self._cells) != count:
            raise ValueError("titles must hold one title per person and edition")
        return self._cells

    def title(self, row: int, person_id: str, edition: str) -> str | None:
        """The title of person ``row``, ``person_id``, in ``edition``."""
        column = self.columns.get(edition)
        title = "" if column is None else self.cells()[row * self.width + column]
        return title or (person_id if edition == "EN" else None)

    def keyed(self, edition: str) -> tuple[list[str], list[str]]:
        """One edition's titles and their owners, in row order."""
        ids = self.ids
        column = self.columns.get(edition)
        if column is None:
            return (ids, ids) if edition == "EN" else ([], [])
        titles = self.cells()[column::self.width]
        if edition == "EN":
            return [t or p for t, p in zip(titles, ids)], ids
        return list(compress(titles, titles)), list(compress(ids, titles))

    def of_row(self, row: int) -> dict[str, str]:
        """Person ``row``'s titles by edition: the stored ones in column
        order, then the EN one when it is the person_id."""
        start = row * self.width
        titles = {code: title for code, title in zip(
            self.columns, self.cells()[start:start + self.width]) if title}
        titles.setdefault("EN", self.ids[row])
        return titles


_NO_TITLES = _TitleColumn((), [], [])


class Person:
    """One registered person: five scalar fields, which equality compares,
    and the birth ``century`` worked out from the year when it is built.

    A person got from a :class:`PersonRegistry` reads its titles from the
    registry's title column, which it shares without referring to the
    registry, so dropping the registry frees both by reference counting.
    One built by hand has only its EN title, its id.
    """

    __slots__ = ("person_id", "birth_country", "birth_year", "gender",
                 "culture", "century", "_titles", "_row", "__weakref__")

    def __init__(self, person_id: str, birth_country: str,
                 birth_year: int | None, gender: str, culture: str,
                 titles: _TitleColumn = _NO_TITLES, row: int = 0):
        self.person_id = person_id
        self.birth_country = birth_country
        self.birth_year = birth_year        # None = unknown; 0 raises
        self.gender = gender
        self.culture = culture
        self.century = None if birth_year is None else century_of(birth_year)
        self._titles = titles
        self._row = row

    def _fields(self) -> tuple[str, str, int | None, str, str]:
        return (self.person_id, self.birth_country, self.birth_year,
                self.gender, self.culture)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Person):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "Person({!r}, {!r}, {!r}, {!r}, {!r})".format(*self._fields())

    def title_in(self, edition: str) -> str | None:
        """The person's title in ``edition``, or None when it has none."""
        return self._titles.title(self._row, self.person_id, edition)


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
    title, or from the columns of a cache artifact.  The constructor raises
    ValueError on an unknown or repeated edition code, field rows or titles
    of the wrong count, an empty id or birth country, an unknown gender, or
    a repeated id.  The titles may come as a list, or still joined by NUL as
    :func:`cache.read_persons` returns them; those are split, and their
    count checked, on the first title read.  Each edition's title index is
    built, and checked for a repeated title, on its first
    :meth:`title_index`, and a :class:`Person` on its first :meth:`get`;
    both are kept.
    """

    def __init__(self, ids: list[str],
                 fields: list[tuple[str, int | None, str]],
                 editions: list[str], titles: list[str] | str,
                 culture_map: CountryCultureMap):
        unknown = set(editions).difference(EDITION_CODES)
        if unknown:
            raise ValueError(f"unknown edition code {min(unknown)!r}")
        if len(set(editions)) != len(editions):
            raise ValueError("duplicate edition code")
        if len(fields) != len(ids):
            raise ValueError("fields must hold one row per person")
        if not all(ids):
            raise ValueError("empty person_id")
        if not all(country for country, _, _ in fields):
            raise ValueError("empty birth_country")
        unknown = {gender for _, _, gender in fields}.difference(GENDERS)
        if unknown:
            raise ValueError(f"unknown gender {min(unknown)!r}")
        self._ids = ids
        self._fields = fields           # (birth_country, birth_year, gender)
        self._titles = _TitleColumn(editions, titles, ids)
        self._culture_map = culture_map
        self._row = dict(zip(ids, range(len(ids))))
        self._built: dict[str, Person] = {}
        self._by_title: dict[str, dict[str, str]] = {}
        if len(self._row) != len(ids):
            self._raise_first_duplicate()

    def columns(self) -> tuple[list[str], list[tuple[str, int | None, str]],
                               list[str], list[str]]:
        """``(ids, fields, editions, titles)``, the titles as a list."""
        return (self._ids, self._fields, list(self._titles.columns),
                self._titles.cells())

    def _check_unique(self) -> None:
        """Build every title index; raise on a duplicate title."""
        for code in dict.fromkeys((*self._titles.columns, "EN")):
            self.title_index(code)

    def _raise_first_duplicate(self) -> None:
        """Name the first duplicate id or title in file order, a person's
        titles in :meth:`_TitleColumn.of_row` order."""
        seen_ids: set[str] = set()
        seen_titles: dict[str, dict[str, str]] = {}
        for row, person_id in enumerate(self._ids):
            if person_id in seen_ids:
                raise ValueError(f"duplicate person_id {person_id!r}")
            seen_ids.add(person_id)
            for code, title in self._titles.of_row(row).items():
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
                person_id, country, year, gender,
                self._culture_map.culture_of(country), self._titles, row)
        return person

    def title_index(self, edition: str) -> Mapping[str, str]:
        """NFC-normalized localized title -> person_id for one edition.

        Raises ValueError naming the first duplicate id or title in file
        order when two persons share a title in this edition.
        """
        index = self._by_title.get(edition)
        if index is None:
            titles, owners = self._titles.keyed(edition)
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


def ranked_rows(ordering: np.ndarray,
                *columns: np.ndarray) -> Iterator[tuple]:
    """``(node, *(column[node] for column in columns))`` for each node of a
    rank ordering in order, as Python values.

    The rows are listed :data:`ORDERING_SLICE` nodes at a time, so a walk
    that stops early, or writes one line per node, never holds a Python
    list of every node.
    """
    for start in range(0, ordering.size, ORDERING_SLICE):
        nodes = ordering[start:start + ORDERING_SLICE]
        yield from zip(nodes.tolist(),
                       *(column[nodes].tolist() for column in columns))


def select_top_people(ranked, labels: tuple[str, ...],
                      registry: PersonRegistry, edition: str,
                      algorithm: str, n: int = 100) -> TopList:
    """Walk a rank ordering and keep the first ``n`` registered persons.

    ``ranked`` is anything exposing an ``ordering`` attribute (a RankIndex or
    a TwoDRankResult) or a plain node-id array.  Node labels are matched
    against the registry's localized titles for ``edition`` by exact byte
    equality after NFC normalization.  The walk stops at the ``n``-th
    person, so only a prefix of the ordering is listed (:func:`ranked_rows`).
    """
    ordering = getattr(ranked, "ordering", ranked)
    ordering = np.asarray(ordering)
    index = registry.title_index(edition)
    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for (node,) in ranked_rows(ordering):
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
