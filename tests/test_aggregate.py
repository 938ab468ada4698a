"""Cross-edition aggregation: theta scores, distributions, locality, overlap."""
import io
import random

import pytest

from gmrank import aggregate
from gmrank.aggregate import (classify_figures, column_normalize,
                              edition_average, filter_by_gender,
                              gender_distribution, global_ranking,
                              language_representation, load_reference_list,
                              locality_ratio, overlap, per_culture_top,
                              spatial_distribution, temporal_distribution,
                              theta_score)
from gmrank.cultures import build_culture_network
from gmrank.registry import EDITION_CODES, TopList
from gmrank.tableio import write_global_csv

from conftest import GOLDEN, make_registry, synthetic_person_rows


def toplist(edition, ids, algorithm="pagerank"):
    return TopList(edition=edition, algorithm=algorithm,
                   entries=tuple((pid, i + 1) for i, pid in enumerate(ids)))


def single_rank_lists(person_id, rank, editions):
    """Lists where person_id sits at a fixed rank, padded with fillers."""
    lists = []
    for edition in editions:
        ids = [f"filler {edition} {i}" for i in range(rank - 1)] + [person_id]
        lists.append(toplist(edition, ids))
    return lists


class TestThetaScore:
    def test_rank_one_everywhere(self):
        lists = single_rank_lists("star", 1, EDITION_CODES)
        entry = theta_score("star", lists)
        assert entry.theta == 2400
        assert entry.n_appear == 24
        assert entry.mean_rank == 1.0

    def test_rank_100_once(self):
        lists = single_rank_lists("edge", 100, ("EN",))
        entry = theta_score("edge", lists)
        assert entry.theta == 1
        assert entry.n_appear == 1
        assert entry.mean_rank == 100.0

    def test_absent_person_errors(self):
        with pytest.raises(ValueError, match="no list"):
            theta_score("ghost", [toplist("EN", ["someone"])])

    def test_bounds_hold_on_corpus(self, corpus_toplists):
        for entry in global_ranking(corpus_toplists):
            assert entry.n_appear <= entry.theta <= 100 * entry.n_appear

    def test_invariant_under_edition_permutation(self, corpus_toplists):
        forward = global_ranking(corpus_toplists)
        backward = global_ranking(list(reversed(corpus_toplists)))
        assert forward == backward


class TestGlobalRanking:
    def test_single_list_keeps_order(self):
        lists = [toplist("EN", ["a", "b", "c"])]
        assert [e.person_id for e in global_ranking(lists)] == ["a", "b", "c"]

    def test_matches_brute_force(self, corpus_toplists):
        # independent spreadsheet-style recomputation
        tally = {}
        for tl in corpus_toplists:
            for pid, rank in tl.entries:
                tally.setdefault(pid, []).append(rank)
        expected = sorted(
            ((pid, sum(101 - r for r in ranks), len(ranks),
              sum(ranks) / len(ranks)) for pid, ranks in tally.items()),
            key=lambda row: (-row[1], -row[2], row[3], row[0]))
        got = [(e.person_id, e.theta, e.n_appear, e.mean_rank)
               for e in global_ranking(corpus_toplists)]
        assert got == expected

    def test_tie_break_higher_appearances_first(self):
        # A appears twice at rank 100 (theta 1 + 1), B once at rank 99 (theta 2)
        lists = [
            toplist("EN", [f"f{i}" for i in range(99)] + ["A"]),
            toplist("FR", [f"g{i}" for i in range(99)] + ["A"]),
            toplist("DE", [f"h{i}" for i in range(98)] + ["B", "x"]),
        ]
        entries = global_ranking(lists)
        a = next(e for e in entries if e.person_id == "A")
        b = next(e for e in entries if e.person_id == "B")
        assert a.theta == b.theta == 2
        assert entries.index(a) < entries.index(b)

    @pytest.mark.parametrize("lists, message", [
        ([toplist("EN", ["a"]), toplist("FR", ["a"], algorithm="2drank")],
         r"^mixed list algorithms: \['2drank', 'pagerank'\]$"),
        ([toplist("EN", ["a"]), toplist("FR", ["a"]), toplist("FR", ["b"])],
         r"^more than one list for edition FR$"),
    ], ids=["mixed", "repeated-edition"])
    @pytest.mark.parametrize("caller", [
        global_ranking,
        lambda lists: build_culture_network(lists, make_registry([])),
    ], ids=["global_ranking", "build_culture_network"])
    def test_invalid_list_set_rejected(self, caller, lists, message):
        with pytest.raises(ValueError, match=message):
            caller(lists)

    def test_does_not_call_theta_score(self, corpus_toplists, monkeypatch):
        expected = global_ranking(corpus_toplists)

        def forbidden(*args, **kwargs):
            raise AssertionError("global_ranking must not rescan per person")

        monkeypatch.setattr(aggregate, "theta_score", forbidden)
        assert aggregate.global_ranking(corpus_toplists) == expected

    def test_corpus_output_matches_golden_file(self, corpus_toplists,
                                               corpus_registry):
        entries = global_ranking(corpus_toplists)
        stream = io.StringIO()
        write_global_csv(stream, entries, classify_figures(entries),
                         corpus_registry)
        golden = GOLDEN / "corpus_global_ranking.csv"
        assert stream.getvalue() == golden.read_text(encoding="utf-8")


def tie_heavy_lists(seed):
    """24 lists drawn from 100 persons: theta and n_appear ties are common."""
    rng = random.Random(seed)
    pool = [f"p{i:02d}" for i in range(100)]
    return [toplist(code, rng.sample(pool, rng.randint(1, 100)))
            for code in EDITION_CODES]


def sort_key(entry):
    return (-entry.theta, -entry.n_appear, entry.mean_rank, entry.person_id)


class TestTieHeavyProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_sorted_theta_scores(self, seed):
        lists = tie_heavy_lists(seed)
        union = {pid for tl in lists for pid, _ in tl.entries}
        expected = sorted((theta_score(pid, lists) for pid in union),
                          key=sort_key)
        assert global_ranking(lists) == expected
        shuffled = list(lists)
        random.Random(seed + 1000).shuffle(shuffled)
        assert global_ranking(shuffled) == expected

    def test_draws_exercise_every_tie_break(self):
        # the property above means little unless the draws contain ties on
        # theta that n_appear breaks, and full ties that person_id breaks
        by_appearances = by_id = 0
        for seed in range(20):
            entries = global_ranking(tie_heavy_lists(seed))
            for a, b in zip(entries, entries[1:]):
                if a.theta != b.theta:
                    continue
                if a.n_appear != b.n_appear:
                    by_appearances += 1
                elif a.mean_rank == b.mean_rank:
                    by_id += 1
        assert by_appearances >= 20 and by_id >= 20


class TestClassify:
    def test_quadrants(self):
        entries = [
            theta_score("g", single_rank_lists("g", 10, EDITION_CODES)),
            theta_score("lh", single_rank_lists("lh", 5, ("EN", "FR"))),
            theta_score("ll", single_rank_lists("ll", 99, ("EN",))),
        ]
        classes = classify_figures(entries)
        assert classes == {"g": "global", "lh": "local_high", "ll": "local_low"}

    def test_partition_is_exhaustive(self, corpus_toplists):
        entries = global_ranking(corpus_toplists)
        classes = classify_figures(entries)
        assert set(classes) == {e.person_id for e in entries}
        assert set(classes.values()) <= {"global", "local_high", "local_low"}


class TestSpatial:
    def test_average_divides_by_edition_count(self):
        rows = [{"person_id": f"us{i}", "birth_country": "US",
                 "birth_year": 1900 + i % 99 + 1, "gender": "male"}
                for i in range(100)]
        rows += [{"person_id": f"fr{i}", "birth_country": "FR",
                  "birth_year": 1900, "gender": "male"} for i in range(23)]
        registry = make_registry(rows, editions=("EN",))
        lists = [toplist("EN", [f"us{i}" for i in range(100)])]
        lists += [toplist(code, [f"fr{i}"])
                  for i, code in enumerate(c for c in EDITION_CODES if c != "EN")]
        table = spatial_distribution(lists, registry)
        averaged = edition_average(table)
        assert averaged.cells[("average", "US")] == pytest.approx(100 / 24)
        assert averaged.cells[("average", "FR")] == pytest.approx(23 / 24)

    def test_counts_conserve_list_length(self, corpus_toplists, corpus_registry):
        table = spatial_distribution(corpus_toplists, corpus_registry)
        for tl in corpus_toplists:
            assert sum(v for (row, _), v in table.cells.items()
                       if row == tl.edition) == len(tl)

    def test_column_normalized_sums_to_one(self, corpus_toplists, corpus_registry):
        table = column_normalize(spatial_distribution(corpus_toplists,
                                                      corpus_registry))
        for col in table.col_keys:
            assert sum(v for (_, c), v in table.cells.items()
                       if c == col) == pytest.approx(1.0, abs=1e-12)


class TestTemporal:
    def test_single_century_cluster(self):
        rows = [{"person_id": f"p{i}", "birth_country": "US",
                 "birth_year": 1901 + i, "gender": "male"} for i in range(10)]
        registry = make_registry(rows, editions=("EN",))
        table = temporal_distribution([toplist("EN", [f"p{i}" for i in range(10)])],
                                      registry)
        assert table.col_keys == (20,)
        assert table.cells[("EN", 20)] == 10

    def test_signed_century_ordering(self):
        rows = [
            {"person_id": "a", "birth_country": "GR", "birth_year": -450, "gender": "male"},
            {"person_id": "b", "birth_country": "IL", "birth_year": -30, "gender": "male"},
            {"person_id": "c", "birth_country": "US", "birth_year": 50, "gender": "male"},
        ]
        registry = make_registry(rows, editions=("EN",))
        table = temporal_distribution([toplist("EN", ["a", "b", "c"])], registry)
        assert table.col_keys == (-5, -1, 1)

    def test_planted_bc5_peak_matches_direct_tally(self, corpus_toplists,
                                                   corpus_registry):
        table = temporal_distribution(corpus_toplists, corpus_registry)
        for tl in corpus_toplists:
            tally = {}
            for pid, _ in tl.entries:
                year = corpus_registry.get(pid).birth_year
                if year is None:
                    continue
                century = (year + 99) // 100 if year > 0 else -((-year + 99) // 100)
                tally[century] = tally.get(century, 0) + 1
            for century, count in tally.items():
                assert table.cells[(tl.edition, century)] == count

    def test_unknown_year_excluded(self, corpus_toplists, corpus_registry):
        table = temporal_distribution(corpus_toplists, corpus_registry)
        known = sum(1 for tl in corpus_toplists for pid, _ in tl.entries
                    if corpus_registry.get(pid).birth_year is not None)
        assert sum(table.cells.values()) == known


class TestLocality:
    def _fixture(self):
        rows = []
        # 19 EN-culture persons born in the 20th century
        for i in range(19):
            rows.append({"person_id": f"en{i}", "birth_country": "US" if i % 2 else "UK",
                         "birth_year": 1905 + i, "gender": "male"})
        # 2 foreign-culture persons born in the same century
        rows.append({"person_id": "pope1", "birth_country": "PL",
                     "birth_year": 1920, "gender": "male"})
        rows.append({"person_id": "pope2", "birth_country": "DE",
                     "birth_year": 1927, "gender": "male"})
        # 5 earlier foreigners
        for i in range(5):
            rows.append({"person_id": f"fr{i}", "birth_country": "FR",
                         "birth_year": 1820 + i, "gender": "male"})
        registry = make_registry(rows, editions=("EN",))
        members = [r["person_id"] for r in rows]
        return registry, [toplist("EN", members)]

    def test_worked_ratio_19_of_21(self):
        registry, lists = self._fixture()
        ratios = locality_ratio(lists, registry)
        assert ratios.value("EN", 20) == pytest.approx(19 / 21)

    def test_no_own_culture_century_is_zero(self):
        registry, lists = self._fixture()
        ratios = locality_ratio(lists, registry)
        assert ratios.value("EN", 19) == 0.0

    def test_empty_century_is_null_marker(self):
        registry = make_registry(
            [{"person_id": f"en{i}", "birth_country": "US", "birth_year": 1905 + i,
              "gender": "male"} for i in range(3)]
            + [{"person_id": "old", "birth_country": "US", "birth_year": 1800,
                "gender": "male"},
               {"person_id": "solo", "birth_country": "US", "birth_year": 1950,
                "gender": "male"}],
            editions=("EN", "FR"))
        en_list = toplist("EN", ["en0", "en1", "en2", "old"])
        fr_list = toplist("FR", ["solo"])           # US-born, so foreign to FR
        ratios = locality_ratio([en_list, fr_list], registry)
        assert ratios.value("FR", 18) is None       # no figure at all
        assert ratios.value("FR", 20) == 0.0        # figures, none own-language
        assert ratios.value("EN", 18) == 1.0        # M = N

    def test_ratios_in_unit_interval(self, corpus_toplists, corpus_registry):
        ratios = locality_ratio(corpus_toplists, corpus_registry)
        for value in ratios.cells.values():
            if value is not None:
                assert 0.0 <= value <= 1.0


class TestGender:
    def test_all_female_list(self):
        rows = [{"person_id": f"w{i}", "birth_country": "US",
                 "birth_year": 1900 + i + 1, "gender": "female"}
                for i in range(100)]
        registry = make_registry(rows, editions=("EN",))
        raw, mean, pooled = gender_distribution(
            [toplist("EN", [r["person_id"] for r in rows])], registry)
        assert raw.value("EN", "female") == 100
        assert mean.value("mean", "female") == 100.0
        assert pooled.value(20, "female_ratio") == 1.0

    def test_pooled_ratio_matches_direct_tally(self, corpus_toplists,
                                               corpus_registry):
        pooled = gender_distribution(corpus_toplists, corpus_registry)[2]
        female, male = {}, {}
        for tl in corpus_toplists:
            for pid, _ in tl.entries:
                person = corpus_registry.get(pid)
                if person.birth_year is None or person.gender == "unknown":
                    continue
                year = person.birth_year
                century = (year + 99) // 100 if year > 0 else -((-year + 99) // 100)
                bucket = female if person.gender == "female" else male
                bucket[century] = bucket.get(century, 0) + 1
        for century in set(female) | set(male):
            f, m = female.get(century, 0), male.get(century, 0)
            assert pooled.value(century, "female_ratio") == pytest.approx(
                f / (f + m))

    def test_raw_counts_are_floats(self, corpus_toplists, corpus_registry):
        # as in every count table, so each count is written as e.g. 3.0
        for table in (gender_distribution(corpus_toplists, corpus_registry)[0],
                      spatial_distribution(corpus_toplists, corpus_registry)):
            assert table.cells
            assert all(type(v) is float for v in table.cells.values())

    def test_unknown_gender_counted_separately(self, corpus_toplists,
                                               corpus_registry):
        raw = gender_distribution(corpus_toplists, corpus_registry)[0]
        for tl in corpus_toplists:
            total = sum(raw.value(tl.edition, gender)
                        for gender in ("female", "male", "unknown"))
            assert total == len(tl)


class TestOverlap:
    def test_identical_lists(self):
        names = [f"n{i}" for i in range(100)]
        assert overlap(names, list(names)) == 100

    def test_disjoint(self):
        assert overlap(["a", "b"], ["c", "d"]) == 0

    def test_symmetric(self):
        a, b = ["a", "b", "c"], ["b", "c", "d"]
        assert overlap(a, b) == overlap(b, a) == 2

    def test_nfd_person_id_matches_its_reference_name(self):
        # the reference loader stores names in NFC; an id kept in NFD is
        # the same name
        nfd = "Poincare\u0301"
        assert overlap([nfd], load_reference_list([nfd])) == 1

    def test_reference_list_loader(self):
        text = "# a comment\nCarl Linnaeus\n\nJesus\n"
        assert load_reference_list(io.StringIO(text)) == ["Carl Linnaeus", "Jesus"]


class TestLanguageRepresentation:
    def test_all_own_culture_edition(self):
        rows = [{"person_id": f"p{i}", "birth_country": "US",
                 "birth_year": 1900, "gender": "male"} for i in range(100)]
        registry = make_registry(rows, editions=("EN",))
        lists = [toplist("EN", [r["person_id"] for r in rows])]
        counts = {c.language: c for c in language_representation(
            registry, lists, global_ranking(lists)[:100])}
        assert counts["EN"].n2 == 100
        assert counts["EN"].n3 is None          # no 2drank lists supplied
        assert counts["WR"].n2 is None          # WR has no edition

    def test_global_counts_partition_top_list(self, corpus_toplists,
                                              corpus_registry):
        top = global_ranking(corpus_toplists)[:100]
        counts = language_representation(corpus_registry, corpus_toplists, top)
        total = sum(c.n1 for c in counts if c.n1 is not None)
        assert total == len(top)

    def test_own_culture_counts_match_direct_tally(self, corpus_toplists,
                                                   corpus_registry):
        lists = [TopList(edition=t.edition, algorithm="2drank", entries=t.entries)
                 for t in corpus_toplists]
        counts = {c.language: c for c in language_representation(
            corpus_registry, lists, global_ranking(lists)[:100])}
        for tl in corpus_toplists:
            expected = sum(1 for pid, _ in tl.entries
                           if corpus_registry.get(pid).culture == tl.edition)
            assert counts[tl.edition].n4 == expected
            assert counts[tl.edition].n1 is None


class TestSlicesAndFilters:
    def test_per_culture_top_respects_global_order(self, corpus_toplists,
                                                   corpus_registry):
        entries = global_ranking(corpus_toplists)
        slices = per_culture_top(entries, corpus_registry, n=3)
        for culture, bucket in slices.items():
            assert len(bucket) <= 3
            for entry in bucket:
                assert corpus_registry.get(entry.person_id).culture == culture
            positions = [entries.index(e) for e in bucket]
            assert positions == sorted(positions)

    def test_filter_by_gender(self, corpus_toplists, corpus_registry):
        entries = global_ranking(corpus_toplists)
        women = filter_by_gender(entries, corpus_registry, "female")
        assert all(corpus_registry.get(e.person_id).gender == "female"
                   for e in women)
        assert women == [e for e in entries
                         if corpus_registry.get(e.person_id).gender == "female"]


class TestNormalizationPurity:
    def test_variants_do_not_mutate_raw(self, corpus_toplists, corpus_registry):
        raw = spatial_distribution(corpus_toplists, corpus_registry)
        before = dict(raw.cells)
        column_normalize(raw)
        edition_average(raw)
        assert dict(raw.cells) == before
        assert raw.normalization == "raw"

    @pytest.mark.parametrize("normalize", [column_normalize, edition_average])
    def test_ratio_table_rejected_naming_its_empty_cell(self, normalize):
        # person 7 has no birth year, so EN holds no figure of century -1
        rows = synthetic_person_rows(40)
        ids = [r["person_id"] for r in rows]
        ratios = locality_ratio(
            [toplist("EN", ids[:20]), toplist("FR", ids[20:])],
            make_registry(rows))
        assert [k for k, v in ratios.cells.items() if v is None] == [("EN", -1)]
        with pytest.raises(ValueError, match=(
                rf"^{normalize.__name__} takes a table of counts; "
                r"cell \('EN', -1\) holds None$")):
            normalize(ratios)
