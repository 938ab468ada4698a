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
from typing import IO, Iterable, Mapping

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

    def rank_of(self) -> dict[str, int]:
        return {p: r for p, r in self.entries}


class PersonRegistry:
    """Immutable person store with per-edition title indexes."""

    def __init__(self, persons: Iterable[Person]):
        self.persons: dict[str, Person] = {}
        self._by_title: dict[str, dict[str, str]] = {}
        for person in persons:
            if person.person_id in self.persons:
                raise ValueError(f"duplicate person_id {person.person_id!r}")
            self.persons[person.person_id] = person
            for code, title in person.titles.items():
                index = self._by_title.setdefault(code, {})
                key = _nfc(title)
                if key in index:
                    raise ValueError(
                        f"duplicate title {title!r} in edition {code}: "
                        f"{index[key]!r} vs {person.person_id!r}")
                index[key] = person.person_id

    def __len__(self) -> int:
        return len(self.persons)

    def __contains__(self, person_id: str) -> bool:
        return person_id in self.persons

    def get(self, person_id: str) -> Person:
        return self.persons[person_id]

    def title_index(self, edition: str) -> Mapping[str, str]:
        """NFC-normalized localized title -> person_id for one edition."""
        return self._by_title.get(edition, {})


def assign_culture(birth_country: str, culture_map: CountryCultureMap) -> str:
    """Language of the birth country; WR for unmapped countries."""
    return culture_map.culture_of(birth_country)


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


_FIXED_COLUMNS = ("person_id", "birth_country", "birth_year", "gender")


def load_persons(stream: IO[str] | Iterable[str],
                 culture_map: CountryCultureMap | None = None) -> PersonRegistry:
    """Load the person registry from TSV.

    Expected header: ``person_id  birth_country  birth_year  gender`` followed
    by one column per edition code holding the localized article title (empty
    when the person has no article there).  An empty EN title defaults to the
    person_id itself, which by construction is the English article title.
    """
    if culture_map is None:
        culture_map = default_culture_map()
    reader = csv.reader(stream, delimiter="\t")
    try:
        header = next(reader)
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

    persons: list[Person] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ValueError(
                f"persons line {line_no}: expected {len(header)} fields, "
                f"got {len(row)}")
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
            birth_year: int | None = int(year_text)
            if birth_year == 0:
                raise ValueError(f"persons line {line_no}: birth_year 0 is invalid")
        else:
            birth_year = None
        gender = row[3].strip().lower() or "unknown"
        if gender not in GENDERS:
            raise ValueError(f"persons line {line_no}: unknown gender {gender!r}")
        titles = {code: title.strip()
                  for code, title in zip(edition_columns, row[4:])
                  if title.strip()}
        titles.setdefault("EN", person_id)
        persons.append(Person(
            person_id=person_id,
            titles=titles,
            birth_country=birth_country,
            birth_year=birth_year,
            gender=gender,
            culture=assign_culture(birth_country, culture_map),
        ))
    return PersonRegistry(persons)


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
