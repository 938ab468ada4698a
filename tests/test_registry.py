"""Person registry, culture assignment, century arithmetic, top-list extraction."""
import io
import logging

import numpy as np
import pytest

from gmrank.rank import rank_indices
from gmrank.registry import (EDITION_CODES, TopList, assign_culture,
                             century_of, default_culture_map, load_persons,
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

    def test_assign_culture_is_pure(self):
        m = default_culture_map()
        assert assign_culture("DE", m) == assign_culture("DE", m) == "DE"

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
        assert person.titles["FR"] == "Napoléon Ier"
        assert person.titles["EN"] == "Napoleon"

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
