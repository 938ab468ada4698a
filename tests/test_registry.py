"""Person registry, culture assignment, century arithmetic, top-list extraction."""
import csv
import gc
import io
import logging
import random
import unicodedata
import weakref

import numpy as np
import pytest

from gmrank import cache
from gmrank.rank import rank_indices
from gmrank.registry import (EDITION_CODES, CountryCultureMap, Person,
                             PersonRegistry, TopList, century_of,
                             default_culture_map, load_persons, ranked_rows,
                             select_top_people)

from conftest import make_registry, persons_tsv, synthetic_person_rows


class TestCenturyOf:
    @pytest.mark.parametrize("year,century", [
        (1769, 18), (-480, -5), (100, 1), (101, 2), (1, 1), (-1, -1),
        (-100, -1), (-101, -2), (2000, 20), (2001, 21),
    ])
    def test_examples(self, year, century):
        assert century_of(year) == century

    def test_year_zero_rejected(self):
        with pytest.raises(ValueError):
            century_of(0)

    def test_odd_symmetry_and_monotonicity(self):
        years = [y for y in range(-2100, 2101) if y != 0]
        for y in years:
            if y > 0:
                assert century_of(-y) == -century_of(y)
        positive = [century_of(y) for y in years if y > 0]
        assert positive == sorted(positive)
        negative = [century_of(y) for y in years if y < 0]
        assert negative == sorted(negative)


class TestPersonCentury:
    def test_hand_built_person_gets_its_century(self):
        assert Person("A", "US", 1901, "male", "EN").century == 20
        assert Person("B", "GR", -470, "male", "EL").century == -5
        assert Person("C", "XX", None, "unknown", "WR").century is None

    def test_hand_built_person_of_year_zero_raises(self):
        with pytest.raises(ValueError, match="^year 0 does not exist$"):
            Person("A", "US", 0, "male", "EN")

    def test_equality_hash_and_repr_keep_five_fields(self):
        person = Person("A", "US", 1901, "male", "EN")
        assert repr(person) == "Person('A', 'US', 1901, 'male', 'EN')"
        assert hash(person) == hash(("A", "US", 1901, "male", "EN"))
        assert person == Person("A", "US", 1901, "male", "EN")


class TestCultureMap:
    def test_paper_attributions(self):
        m = default_culture_map()
        assert m.culture_of("TR") == "TR"
        assert m.culture_of("UA") == "WR"      # Ukraine is not a covered language
        assert m.culture_of("PS") == "AR"      # Palestine speaks Arabic
        assert m.culture_of("BE") == "NL"      # Belgium is attributed to Dutch
        assert m.culture_of("FR") == "FR"
        assert m.culture_of("XX") == "WR"
        assert m.culture_of("KP") == "KO"

    def test_unmapped_country_falls_back_to_world(self):
        assert default_culture_map().culture_of("QQ") == "WR"

    def test_map_covers_all_catalog_languages(self):
        m = default_culture_map()
        used = set(m.entries.values())
        assert used == set(EDITION_CODES) | {"WR"}


class TestCultureMapLoader:
    def test_duplicate_country_rejected(self):
        from gmrank.registry import load_culture_map
        with pytest.raises(ValueError, match="duplicate"):
            load_culture_map(io.StringIO("US\tEN\nUS\tEN\n"))

    def test_unknown_language_rejected(self):
        from gmrank.registry import load_culture_map
        with pytest.raises(ValueError, match="language"):
            load_culture_map(io.StringIO("US\tQQ\n"))

    def test_world_is_a_valid_target(self):
        from gmrank.registry import load_culture_map
        m = load_culture_map(io.StringIO("UA\tWR\n"))
        assert m.culture_of("UA") == "WR"


class TestLoadPersons:
    def test_culture_derived_from_birth_country(self):
        reg = make_registry([
            {"person_id": "Napoleon", "birth_country": "FR",
             "birth_year": 1769, "gender": "male", "FR": "Napoléon Ier"},
        ])
        person = reg.get("Napoleon")
        assert person.culture == "FR"
        assert person.title_in("FR") == "Napoléon Ier"
        assert person.title_in("EN") == "Napoleon"
        assert person.title_in("JA") is None

    def test_unknown_country_maps_to_world(self):
        reg = make_registry([{"person_id": "A", "birth_country": "XX",
                              "birth_year": 1900, "gender": "male"}])
        assert reg.get("A").culture == "WR"

    def test_belgium_is_dutch(self):
        reg = make_registry([{"person_id": "B", "birth_country": "BE",
                              "birth_year": 800, "gender": "male"}])
        assert reg.get("B").culture == "NL"

    def test_duplicate_person_id_rejected(self):
        rows = [{"person_id": "A", "birth_country": "US", "birth_year": 1,
                 "gender": "male"}] * 2
        with pytest.raises(ValueError, match="duplicate person_id"):
            make_registry(rows)

    def test_duplicate_title_lists_both_persons(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\n"
                "A\tUS\t1900\tmale\tA\tSame\n"
                "B\tUS\t1901\tmale\tB\tSame\n")
        with pytest.raises(ValueError) as exc_info:
            load_persons(io.StringIO(text))
        assert "A" in str(exc_info.value) and "B" in str(exc_info.value)

    def test_birth_year_zero_rejected(self):
        with pytest.raises(ValueError, match="birth_year 0"):
            make_registry([{"person_id": "A", "birth_country": "US",
                            "birth_year": 0, "gender": "male"}])

    def test_non_integer_birth_year_names_line(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\n"
                "A\tUS\t1900\tmale\tA\n"
                "B\tUS\tabc\tmale\tB\n")
        with pytest.raises(ValueError,
                           match=r"^persons line 3: birth_year .*'abc'"):
            load_persons(io.StringIO(text))

    @pytest.mark.parametrize("row, message", [
        ("B\0\tXX\t1800\tmale\tB\n", "a field holds a NUL character"),
        ("B\tX\0X\t1800\tmale\tB\n", "a field holds a NUL character"),
        ("B\tXX\t1800\tmale\tB\0B\n", "a field holds a NUL character"),
        (f"B\tXX\t{2**63}\tmale\tB\n",
         f"birth_year {2**63} does not fit in 64 bits"),
        (f"B\tXX\t{-2**63 - 1}\tmale\tB\n",
         f"birth_year {-2**63 - 1} does not fit in 64 bits"),
    ], ids=["nul-in-id", "nul-in-country", "nul-in-title", "year-over-int64",
            "year-under-int64"])
    def test_row_the_cache_cannot_store_names_line(self, row, message):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\n"
                "A\tUS\t1900\tmale\tA\n" + row)
        with pytest.raises(ValueError) as exc_info:
            load_persons(io.StringIO(text))
        assert str(exc_info.value) == f"persons line 3: {message}"

    def test_int64_bounds_are_valid_years(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\n"
                f"A\tUS\t{2**63 - 1}\tmale\tA\n"
                f"B\tUS\t{-2**63}\tmale\tB\n")
        registry = from_artifact(load_persons(io.StringIO(text)),
                                 default_culture_map())
        assert registry.get("A").birth_year == 2**63 - 1
        assert registry.get("B").birth_year == -2**63

    def test_error_names_physical_line_after_multiline_title(self):
        # the quoted FR title of A spans lines 2-3, so B's row is line 4
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\n"
                'A\tUS\t1900\tmale\tA\t"Deux\nlignes"\n'
                "B\tUS\tabc\tmale\tB\tB\n")
        with pytest.raises(ValueError,
                           match=r"^persons line 4: birth_year .*'abc'"):
            load_persons(io.StringIO(text))

    def test_duplicate_person_id_before_later_duplicate_title(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\n"
                "A\tUS\t1900\tmale\tA\tX\n"
                "A\tUS\t1901\tmale\tA2\tY\n"
                "B\tUS\t1902\tmale\tB\tX\n")
        with pytest.raises(ValueError, match=r"^duplicate person_id 'A'$"):
            load_persons(io.StringIO(text))

    def test_duplicate_title_before_later_duplicate_person_id(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\n"
                "A\tUS\t1900\tmale\tA\tX\n"
                "B\tUS\t1902\tmale\tB\tX\n"
                "A\tUS\t1901\tmale\tA2\tY\n")
        with pytest.raises(ValueError,
                           match=r"^duplicate title 'X' in edition FR: 'A' vs 'B'$"):
            load_persons(io.StringIO(text))

    def test_empty_en_title_clashing_with_an_en_title(self):
        # B has no EN title, so it defaults to 'B', which A already holds
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\n"
                "A\tUS\t1900\tmale\tB\n"
                "B\tUS\t1901\tmale\t\n")
        with pytest.raises(ValueError,
                           match=r"^duplicate title 'B' in edition EN: 'A' vs 'B'$"):
            load_persons(io.StringIO(text))

    def test_unknown_id_raises_key_error(self):
        reg = make_registry([{"person_id": "A", "birth_country": "US",
                              "birth_year": 1900, "gender": "male"}])
        assert "A" in reg and "Z" not in reg
        with pytest.raises(KeyError):
            reg.get("Z")

    def test_get_returns_one_person_per_id(self):
        reg = make_registry(synthetic_person_rows())
        assert reg.get("Person 03") is reg.get("Person 03")

    def test_empty_year_is_unknown(self):
        reg = make_registry([{"person_id": "A", "birth_country": "US",
                              "birth_year": None, "gender": "female"}])
        assert reg.get("A").birth_year is None

    def test_bad_gender_rejected(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\n"
                "A\tUS\t1900\tother\tA\n")
        with pytest.raises(ValueError, match="gender"):
            load_persons(io.StringIO(text))

    def test_missing_country_rejected(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\n"
                "A\t\t1900\tmale\tA\n")
        with pytest.raises(ValueError, match="birth_country"):
            load_persons(io.StringIO(text))

    def test_unknown_edition_column_rejected(self):
        text = "person_id\tbirth_country\tbirth_year\tgender\tQQ\nA\tUS\t1\tmale\tA\n"
        with pytest.raises(ValueError, match="edition column"):
            load_persons(io.StringIO(text))

    def test_synthetic_corpus_loads(self):
        reg = make_registry(synthetic_person_rows())
        assert len(reg) == 40
        assert reg.get("Person 13").culture == "WR"   # forced XX country
        assert reg.get("Person 07").birth_year is None


class TestTopListType:
    def test_ranks_must_be_contiguous(self):
        with pytest.raises(ValueError, match="1..len"):
            TopList(edition="EN", algorithm="pagerank",
                    entries=(("a", 1), ("b", 3)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TopList(edition="EN", algorithm="pagerank",
                    entries=(("a", 1), ("a", 2)))

    def test_cap_at_100(self):
        entries = tuple((f"p{i}", i + 1) for i in range(101))
        with pytest.raises(ValueError, match="100"):
            TopList(edition="EN", algorithm="pagerank", entries=entries)

    def test_unknown_edition(self):
        with pytest.raises(ValueError, match="edition"):
            TopList(edition="QQ", algorithm="pagerank", entries=())


class TestSelectTopPeople:
    def _registry(self):
        return make_registry([
            {"person_id": "Ada", "birth_country": "UK", "birth_year": 1815,
             "gender": "female", "EN": "Ada Lovelace"},
            {"person_id": "Gauss", "birth_country": "DE", "birth_year": 1777,
             "gender": "male", "EN": "Carl Friedrich Gauss"},
            {"person_id": "Euler", "birth_country": "CH", "birth_year": 1707,
             "gender": "male", "EN": "Leonhard Euler"},
        ])

    def test_filter_semantics(self):
        reg = self._registry()
        labels = ("Topology", "Ada Lovelace", "Set theory", "Carl Friedrich Gauss")
        ordering = np.array([0, 1, 2, 3])
        toplist = select_top_people(ordering, labels, reg, "EN", "pagerank", n=2)
        assert toplist.entries == (("Ada", 1), ("Gauss", 2))

    def test_stops_at_n(self):
        reg = self._registry()
        labels = ("Ada Lovelace", "Carl Friedrich Gauss", "Leonhard Euler")
        toplist = select_top_people(np.array([2, 0, 1]), labels, reg, "EN",
                                    "pagerank", n=2)
        assert toplist.entries == (("Euler", 1), ("Ada", 2))

    def test_truncated_list_warns(self, caplog):
        reg = self._registry()
        labels = ("Ada Lovelace", "Nothing")
        with caplog.at_level(logging.WARNING):
            toplist = select_top_people(np.array([0, 1]), labels, reg, "EN",
                                        "pagerank", n=5)
        assert len(toplist) == 1
        assert "only 1 of 5" in caplog.text

    def test_empty_registry_gives_empty_list(self, caplog):
        reg = make_registry([])
        with caplog.at_level(logging.WARNING):
            toplist = select_top_people(np.array([0]), ("X",), reg, "EN",
                                        "pagerank", n=3)
        assert toplist.entries == ()

    def test_accepts_rank_index(self):
        reg = self._registry()
        labels = ("Leonhard Euler", "Ada Lovelace")
        idx = rank_indices(np.array([0.3, 0.7]))
        toplist = select_top_people(idx, labels, reg, "EN", "pagerank", n=2)
        assert toplist.entries == (("Ada", 1), ("Euler", 2))

    def test_nfc_title_matching(self):
        # registry title composed (é), graph label decomposed (e + combining accent)
        reg = make_registry([
            {"person_id": "Poincare", "birth_country": "FR", "birth_year": 1854,
             "gender": "male", "EN": "Henri Poincaré"}])
        labels = ("Henri Poincaré",)
        toplist = select_top_people(np.array([0]), labels, reg, "EN",
                                    "pagerank", n=1)
        assert toplist.entries == (("Poincare", 1),)

    def test_ranks_are_contiguous_in_encounter_order(self):
        reg = self._registry()
        labels = ("x", "Leonhard Euler", "y", "Ada Lovelace", "z",
                  "Carl Friedrich Gauss")
        toplist = select_top_people(np.arange(6), labels, reg, "EN",
                                    "pagerank", n=100)
        assert [r for _, r in toplist.entries] == [1, 2, 3]


class TestSelectTopPeopleInSlicesOfThree(TestSelectTopPeople):
    """Every case above, with the ordering listed three nodes at a time."""

    @pytest.fixture(autouse=True)
    def slices_of_three(self, monkeypatch):
        monkeypatch.setattr("gmrank.registry.ORDERING_SLICE", 3)

    @pytest.mark.parametrize("size", [0, 1, 3, 7, 9])
    def test_ranked_rows_list_the_whole_ordering(self, size):
        ordering = np.arange(size, dtype=np.int64)[::-1]
        column = np.linspace(0.0, 1.0, size)
        rows = list(ranked_rows(ordering, column, 2 * np.arange(size)))
        assert rows == [(node, column[node], 2 * node)
                        for node in ordering.tolist()]
        assert all(type(value) in (int, float) for row in rows
                   for value in row)


NFC_E = "\u00e9"            # é, composed
NFD_E = "e\u0301"           # e + combining acute


class TestConstructorRules:
    """A registry built by hand keeps the rules of a loaded one."""

    @pytest.mark.parametrize("joined", [False, True], ids=["list", "joined"])
    @pytest.mark.parametrize("ids, fields, editions, match", [
        (["A"], [("FR", 1900, "male")], ["EN", "XY"],
         "^unknown edition code 'XY'$"),
        (["A"], [("FR", 1900, "male")], ["FR", "EN", "FR"],
         "^duplicate edition code$"),
        (["A"], [("FR", 1900, "other")], ["EN"], "^unknown gender 'other'$"),
        (["A", "B"], [("FR", 1900, "male")], ["EN"],
         "^fields must hold one row per person$"),
        (["A", "B", "A"], [("FR", 1900, "male")] * 3, ["EN"],
         "^duplicate person_id 'A'$"),
        (["A", ""], [("FR", 1900, "male")] * 2, ["EN"], "^empty person_id$"),
        (["A", "B"], [("FR", 1900, "male"), ("", None, "male")], ["EN"],
         "^empty birth_country$"),
    ], ids=["unknown-edition", "duplicate-edition", "unknown-gender",
            "short-fields", "duplicate-id", "empty-id", "empty-country"])
    def test_broken_columns_refused_naming_the_rule(
            self, ids, fields, editions, match, joined):
        titles = [""] * (len(ids) * len(editions))
        with pytest.raises(ValueError, match=match):
            PersonRegistry(ids, fields, editions,
                           "\0".join(titles) if joined else titles,
                           default_culture_map())


class TestColumnNfc:
    """A non-ASCII edition column is matched after NFC, title by title."""

    HEADER = "person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\n"

    def test_nfd_title_in_file_matches_nfc_label(self):
        text = (self.HEADER
                + f"Poincare\tFR\t1854\tmale\t\tHenri Poincar{NFD_E}\n"
                + f"Curie\tPL\t1867\tfemale\t\tMarie Curie\n")
        reg = load_persons(io.StringIO(text))
        labels = ("Marie Curie", f"Henri Poincar{NFC_E}")
        toplist = select_top_people(np.array([1, 0]), labels, reg, "FR",
                                    "pagerank", n=2)
        assert toplist.entries == (("Poincare", 1), ("Curie", 2))
        assert reg.get("Poincare").title_in("FR") == f"Henri Poincar{NFD_E}"

    def test_titles_equal_after_nfc_are_duplicates(self):
        text = (self.HEADER
                + f"A\tFR\t1900\tmale\tA\tJ{NFC_E}sus\n"
                + f"B\tFR\t1901\tmale\tB\tJ{NFD_E}sus\n")
        with pytest.raises(ValueError) as exc_info:
            load_persons(io.StringIO(text))
        assert str(exc_info.value) == (
            f"duplicate title {f'J{NFD_E}sus'!r} in edition FR: 'A' vs 'B'")

    def test_title_holding_newline_next_to_non_ascii_title(self):
        # a newline inside a title must not split it into two keys
        text = (self.HEADER
                + 'A\tFR\t1900\tmale\tA\t"Deux\nlignes"\n'
                + f"B\tFR\t1901\tmale\tB\tJ{NFD_E}sus\n")
        reg = load_persons(io.StringIO(text))
        assert dict(reg.title_index("FR")) == {"Deux\nlignes": "A",
                                               f"J{NFC_E}sus": "B"}
        assert reg.get("A").title_in("FR") == "Deux\nlignes"

    def test_constructor_rejects_titles_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="one title per person and edition"):
            PersonRegistry(["A", "B"], [("FR", 1900, "male")] * 2,
                           ["EN", "FR"], ["A", "x", "B"],
                           default_culture_map())

    @pytest.mark.parametrize("ids, editions, joined", [
        (["A", "B"], ["EN", "FR"], "A\0x\0B"),
        (["A"], ["EN", "FR"], "A\0x\0B"),
        (["A"], [], "A"),
        ([], ["EN"], "A")], ids=["short", "long", "no-editions", "no-persons"])
    def test_joined_titles_of_the_wrong_width_refused_on_first_read(
            self, ids, editions, joined):
        reg = PersonRegistry(ids, [("FR", 1900, "male")] * len(ids),
                             editions, joined, default_culture_map())
        for _ in range(2):          # a refused split is not kept
            with pytest.raises(ValueError,
                               match="one title per person and edition"):
                reg.columns()


# -- the registry against the eager loader it replaced ------------------------

def eager_load(text):
    """The row-at-a-time loader: one Person per row, then the title indexes.

    Returns the first error message, or ``(persons, titles,
    title_indexes)``: ``titles`` maps each id to its edition -> title dict.
    Lines are numbered by ``reader.line_num``, as ``load_persons`` does.
    """
    culture_map = default_culture_map()
    reader = csv.reader(io.StringIO(text), delimiter="\t")
    header = [h.strip() for h in next(reader)]
    editions = header[4:]
    persons, titles_of = [], {}
    try:
        for row in reader:
            line_no = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(f"persons line {line_no}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            if "\0" in "".join(row):
                raise ValueError(f"persons line {line_no}: a field holds "
                                 "a NUL character")
            person_id = row[0].strip()
            if not person_id:
                raise ValueError(f"persons line {line_no}: empty person_id")
            country = row[1].strip()
            if not country:
                raise ValueError(f"persons line {line_no}: missing "
                                 "birth_country (use XX for unknown)")
            year_text = row[2].strip()
            year = None
            if year_text:
                try:
                    year = int(year_text)
                except ValueError:
                    raise ValueError(
                        f"persons line {line_no}: birth_year must be an "
                        f"integer, got {year_text!r}") from None
                if year == 0:
                    raise ValueError(
                        f"persons line {line_no}: birth_year 0 is invalid")
                if not -2**63 <= year < 2**63:
                    raise ValueError(f"persons line {line_no}: birth_year "
                                     f"{year} does not fit in 64 bits")
            gender = row[3].strip().lower() or "unknown"
            if gender not in ("male", "female", "unknown"):
                raise ValueError(
                    f"persons line {line_no}: unknown gender {gender!r}")
            titles = {code: t.strip() for code, t in zip(editions, row[4:])
                      if t.strip()}
            titles.setdefault("EN", person_id)
            persons.append(Person(person_id, country, year, gender,
                                  culture_map.culture_of(country)))
            titles_of[person_id] = titles
        by_id, by_title = {}, {}
        for person in persons:
            if person.person_id in by_id:
                raise ValueError(f"duplicate person_id {person.person_id!r}")
            by_id[person.person_id] = person
            for code, title in titles_of[person.person_id].items():
                index = by_title.setdefault(code, {})
                key = unicodedata.normalize("NFC", title)
                if key in index:
                    raise ValueError(
                        f"duplicate title {title!r} in edition {code}: "
                        f"{index[key]!r} vs {person.person_id!r}")
                index[key] = person.person_id
    except ValueError as exc:
        return str(exc)
    return by_id, titles_of, by_title


def _title_form(rng, base, features):
    form = rng.choice(("plain", "padded", "nfd", "nfc", "newline", "quote"))
    features.add(form)
    return {"plain": base,
            "padded": f"  {base} ",
            "nfd": f"{base}-{NFD_E}",
            "nfc": f"{base}-{NFC_E}",
            "newline": f"{base}\n{NFC_E}",
            "quote": f'"{base}'}[form]


INJECTIONS = ("duplicate-id", "duplicate-title", "nfc-duplicate-title",
              "en-default-clash", "bad-year", "year-zero", "bad-gender",
              "empty-id", "no-country", "ragged", "nul-field",
              "year-over-int64")
# the rows the cache cannot store; a file holding one never loads
UNSTORABLE = ("nul-field", "year-over-int64")


def random_persons_file(seed, injections=INJECTIONS):
    """A seeded persons file and the features it exercises."""
    rng = random.Random(seed)
    features = set()
    editions = rng.sample([c for c in EDITION_CODES if c != "EN"],
                          rng.randint(1, 4))
    if rng.random() < 0.7:
        editions.insert(rng.randint(0, len(editions)), "EN")
    else:
        features.add("no-en-column")
    rows = []
    for i in range(rng.randint(1, 25)):
        titles = []
        for code in editions:
            if rng.random() < 0.3:
                titles.append("")
                features.add("empty-en" if code == "EN" else "empty-title")
            else:
                titles.append(_title_form(rng, f"T{i}{code}", features))
        year = rng.choice(("", " 1900 ", str(rng.randint(-3000, 2020) or 1)))
        rows.append([rng.choice(("P", " P")) + str(i),
                     rng.choice(("US", "FR", "BE", "XX", "UA", " DE ")), year,
                     rng.choice(("male", "female", "unknown", "", " Female "))]
                    + titles)
    for _ in range(rng.choice((0, 0, 1, 2))):
        kind = rng.choice(injections)
        j = rng.randrange(len(rows))
        k = rng.randrange(j + 1)           # k <= j
        col = rng.randrange(len(editions))
        if kind == "duplicate-id":
            rows[j][0] = rows[k][0]
        elif kind in ("duplicate-title", "nfc-duplicate-title"):
            title = f"Same{NFC_E}" if kind == "duplicate-title" else f"Same{NFD_E}"
            rows[k][4 + col] = f"Same{NFC_E}"
            rows[j][4 + col] = title
        elif kind == "en-default-clash" and "EN" in editions:
            rows[k][4 + editions.index("EN")] = rows[j][0].strip()
            rows[j][4 + editions.index("EN")] = ""
        elif kind == "bad-year":
            rows[j][2] = "19x0"
        elif kind == "year-zero":
            rows[j][2] = " 0"
        elif kind == "bad-gender":
            rows[j][3] = "other"
        elif kind == "empty-id":
            rows[j][0] = "  "
        elif kind == "no-country":
            rows[j][1] = ""
        elif kind == "ragged":
            rows[j] = rows[j][:-1]
        elif kind == "nul-field":
            rows[j][rng.randrange(len(rows[j]))] += "\0"
        elif kind == "year-over-int64":
            rows[j][2] = rng.choice((str(2**63), str(-2**63 - 1)))
        features.add(kind)
    out = io.StringIO()
    writer = csv.writer(out, delimiter="\t", lineterminator="\n")
    writer.writerow(["person_id", "birth_country", "birth_year", "gender",
                     *editions])
    for row in rows:
        if rng.random() < 0.1:
            out.write(rng.choice(("\n", "   \n")))
            features.add("blank-row")
        writer.writerow(row)
    return out.getvalue(), features


SEEDS = range(300)


class TestMatchesEagerLoader:
    def test_draws_exercise_every_feature(self):
        seen = set()
        outcomes = set()
        for seed in SEEDS:
            text, features = random_persons_file(seed)
            seen |= features
            outcomes.add(isinstance(eager_load(text), str))
        assert seen >= {"plain", "padded", "nfd", "nfc", "newline", "quote",
                        "no-en-column", "empty-en", "empty-title",
                        "blank-row", *INJECTIONS}
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_persons_indexes_and_first_error(self, seed):
        text, _ = random_persons_file(seed)
        expected = eager_load(text)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc_info:
                load_persons(io.StringIO(text))
            assert str(exc_info.value) == expected
            return
        persons, titles_of, by_title = expected
        reg = load_persons(io.StringIO(text))
        assert len(reg) == len(persons)
        for person_id, person in persons.items():
            assert person_id in reg
            assert reg.get(person_id) == person
            for code in (*EDITION_CODES, "XY"):
                expected_title = titles_of[person_id].get(code)
                assert reg.get(person_id).title_in(code) == expected_title
        assert "absent" not in reg
        with pytest.raises(KeyError):
            reg.get("absent")
        for code in EDITION_CODES:
            assert dict(reg.title_index(code)) == by_title.get(code, {})


# -- a registry rebuilt from its cache artifact ------------------------------

# drawn without the unstorable rows, which can only make a file fail to load
STORABLE = tuple(kind for kind in INJECTIONS if kind not in UNSTORABLE)


def storable_persons_file(seed):
    return random_persons_file(seed, STORABLE)[0]


VALID_SEEDS = [seed for seed in SEEDS
               if not isinstance(eager_load(storable_persons_file(seed)), str)]

# every country the random files draw gets another culture than by default
OTHER_MAP = CountryCultureMap({"US": "FR", "FR": "DE", "BE": "ZH", "XX": "JA",
                               "UA": "EN", "DE": "WR"})


def from_artifact(registry, culture_map):
    """The registry a cache hit builds from ``registry``'s artifact."""
    buf = io.BytesIO()
    cache.write_persons(buf, *registry.columns())
    buf.seek(0)
    columns = cache.read_persons(buf)
    return PersonRegistry(*columns, culture_map)


class TestArtifactMatchesFreshLoad:
    def test_enough_valid_draws(self):
        assert len(VALID_SEEDS) >= 100

    @pytest.mark.parametrize("seed", VALID_SEEDS)
    def test_hit_equals_fresh_load_under_another_culture_map(self, seed):
        text = storable_persons_file(seed)
        fresh = load_persons(io.StringIO(text), OTHER_MAP)
        # the artifact is written from a load under the default map
        hit = from_artifact(load_persons(io.StringIO(text)), OTHER_MAP)
        persons, _, _ = eager_load(text)
        assert len(hit) == len(fresh) == len(persons)
        for person_id in persons:
            assert person_id in hit
            assert hit.get(person_id) == fresh.get(person_id)
            assert hit.get(person_id).culture == OTHER_MAP.culture_of(
                persons[person_id].birth_country)
        assert "absent" not in hit
        header = text.split("\n", 1)[0].split("\t")[4:]
        for code in EDITION_CODES:
            assert dict(hit.title_index(code)) == dict(fresh.title_index(code))
            if code not in header and code != "EN":
                assert hit.title_index(code) == {}

    @pytest.mark.parametrize("seed", VALID_SEEDS)
    def test_warm_titles_equal_fresh_load(self, seed):
        text = storable_persons_file(seed)
        fresh = load_persons(io.StringIO(text))
        _, titles_of, _ = eager_load(text)
        codes = (*EDITION_CODES, "XY")     # XY is in no file's columns
        # each warm registry splits its titles on a different first read
        by_columns = from_artifact(fresh, default_culture_map())
        by_title_in = from_artifact(fresh, default_culture_map())
        by_index = from_artifact(fresh, default_culture_map())
        assert by_columns.columns() == fresh.columns()
        for code in codes:
            for person_id, titles in titles_of.items():
                expected = titles.get(code)
                assert fresh.get(person_id).title_in(code) == expected
                assert by_columns.get(person_id).title_in(code) == expected
                assert by_title_in.get(person_id).title_in(code) == expected
            assert dict(by_index.title_index(code)) == dict(
                fresh.title_index(code))


def expected_century(year):
    return None if year is None else century_of(year)


class TestCenturyOfEveryLoadedPerson:
    def test_draws_hold_known_and_unknown_years(self):
        years = {person.birth_year is None
                 for seed in VALID_SEEDS
                 for person in eager_load(storable_persons_file(seed))[0]
                 .values()}
        assert years == {True, False}

    @pytest.mark.parametrize("seed", VALID_SEEDS)
    def test_fresh_and_artifact_persons_carry_their_century(self, seed):
        text = storable_persons_file(seed)
        fresh = load_persons(io.StringIO(text))
        hit = from_artifact(fresh, default_culture_map())
        for person_id, expected in eager_load(text)[0].items():
            for registry in (fresh, hit):
                person = registry.get(person_id)
                assert person.birth_year == expected.birth_year
                assert person.century == expected_century(expected.birth_year)


class TestNoReferenceCycle:
    def test_registry_and_person_freed_by_reference_counting(self):
        text = storable_persons_file(VALID_SEEDS[0])
        enabled = gc.isenabled()
        gc.disable()
        try:
            registry = from_artifact(load_persons(io.StringIO(text)),
                                     default_culture_map())
            person_id = next(iter(eager_load(text)[0]))
            person = registry.get(person_id)
            registry_ref, person_ref = weakref.ref(registry), weakref.ref(person)
            title = registry.get(person_id).title_in("EN")
            del registry
            assert registry_ref() is None       # the person keeps no link
            assert person.title_in("EN") == title
            del person
            assert person_ref() is None
        finally:
            if enabled:
                gc.enable()


class TestDuplicateTitleInArtifact:
    """A hand-edited artifact can give two persons one title; the lazily
    built index must refuse it rather than keep the later owner."""

    def registry(self):
        text = ("person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\n"
                "A\tUS\t1900\tmale\tA\tX\n"
                "B\tUS\t1902\tmale\tB\tY\n")
        ids, fields, editions, titles = load_persons(
            io.StringIO(text)).columns()
        titles = [t if t not in ("X", "Y") else "Same" for t in titles]
        buf = io.BytesIO()
        cache.write_persons(buf, ids, fields, editions, titles)
        buf.seek(0)
        columns = cache.read_persons(buf)
        return PersonRegistry(*columns, default_culture_map())

    def test_index_build_names_the_duplicate(self):
        reg = self.registry()
        for _ in range(2):          # a refused index is not kept
            with pytest.raises(ValueError, match=r"^duplicate title 'Same' "
                               r"in edition FR: 'A' vs 'B'$"):
                reg.title_index("FR")
        assert dict(reg.title_index("EN")) == {"A": "A", "B": "B"}
