"""CSV emission: top-list round-trip, determinism, atomic writes."""
import io
import json

import numpy as np
import pytest

from gmrank import aggregate, registry
from gmrank.cultures import (CULTURE_INDEX, build_culture_network,
                             culture_google_matrix, culture_ranks)
from gmrank.rank import cheirank, pagerank, rank_indices, two_d_rank
from gmrank.registry import TopList
from gmrank.tableio import (TOPLIST_HEADER, atomic_write, read_toplist_csv,
                            write_culture_matrix_csv,
                            write_culture_network_csv, write_distribution_csv,
                            write_gender_csv, write_global_csv,
                            write_language_counts_csv, write_locality_csv,
                            write_overlap_json, write_rank_csv,
                            write_toplist_csv, write_two_d_rank_csv)

from conftest import (BLOCK_GRAPHS, make_registry, planted_toplists,
                      synthetic_person_rows)


@pytest.fixture
def corpus():
    rows = synthetic_person_rows()
    return make_registry(rows), planted_toplists(rows)


class TestToplistRoundTrip:
    def test_exact_reconstruction(self, corpus):
        registry, toplists = corpus
        for toplist in toplists:
            buf = io.StringIO()
            write_toplist_csv(buf, toplist, registry)
            assert read_toplist_csv(io.StringIO(buf.getvalue()),
                                    toplist.edition, toplist.algorithm) == toplist

    def test_title_with_comma_survives(self):
        registry = make_registry([
            {"person_id": "DC", "birth_country": "US", "birth_year": 1900,
             "gender": "male", "EN": "Washington, D.C. person"}],
            editions=("EN",))
        toplist = TopList(edition="EN", algorithm="pagerank",
                          entries=(("DC", 1),))
        buf = io.StringIO()
        write_toplist_csv(buf, toplist, registry)
        assert read_toplist_csv(io.StringIO(buf.getvalue()), "EN",
                                "pagerank") == toplist

    def test_header_only_file_is_empty_list(self, corpus):
        registry, _ = corpus
        toplist = TopList(edition="FR", algorithm="2drank", entries=())
        buf = io.StringIO()
        write_toplist_csv(buf, toplist, registry)
        assert read_toplist_csv(io.StringIO(buf.getvalue()), "FR",
                                "2drank") == toplist

    @pytest.mark.parametrize("edition, algorithm", [
        ("FR", "pagerank"), ("EN", "2drank")])
    def test_row_of_another_list_names_line(self, edition, algorithm):
        text = (",".join(TOPLIST_HEADER) + "\n"
                f"{edition},{algorithm},A,A,1,EN,US,19,male\n")
        with pytest.raises(ValueError, match=(
                f"^line 2: mixed edition/algorithm: expected EN/pagerank, "
                f"got {edition}/{algorithm}$")):
            read_toplist_csv(io.StringIO(text), "EN", "pagerank")

    def test_mixed_edition_rows_rejected(self, corpus):
        registry, toplists = corpus
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_toplist_csv(buf1, toplists[0], registry)
        write_toplist_csv(buf2, toplists[1], registry)
        merged = buf1.getvalue() + "".join(buf2.getvalue().splitlines(True)[1:])
        with pytest.raises(ValueError, match="mixed"):
            read_toplist_csv(io.StringIO(merged), toplists[0].edition,
                             toplists[0].algorithm)

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: expected the top-list header, got an empty file"),
        ("edition,rank\n", "line 1: expected the top-list header, got"),
        ("{header}\nEN,pagerank,A,A,1,EN,US,19\n", "line 2: expected 9 fields"),
        ("{header}\nEN,pagerank,A,A,1,EN,US,19,male\n"
         "EN,pagerank,B,B,x,EN,US,19,male\n", "line 3: rank must be an integer"),
    ], ids=["empty", "bad-header", "short-row", "non-integer-rank"])
    def test_malformed_file_names_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            read_toplist_csv(io.StringIO(
                text.format(header=",".join(TOPLIST_HEADER))), "EN", "pagerank")

    def test_century_and_gender_columns(self, corpus):
        registry, toplists = corpus
        buf = io.StringIO()
        write_toplist_csv(buf, toplists[0], registry)
        lines = buf.getvalue().splitlines()
        header = lines[0].split(",")
        assert header == ["edition", "algorithm", "person_id", "title", "rank",
                          "culture", "country", "century", "gender"]


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, corpus):
        registry, toplists = corpus
        entries = aggregate.global_ranking(toplists)
        classes = aggregate.classify_figures(entries)
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            write_global_csv(buf, entries, classes, registry)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_distribution_csv_layout(self, corpus):
        registry, toplists = corpus
        table = aggregate.spatial_distribution(toplists, registry)
        buf = io.StringIO()
        write_distribution_csv(buf, [table, aggregate.column_normalize(table)])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "row_key,col_key,value,normalization"
        tags = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert tags == {"raw", "column-normalized"}

    def test_distribution_cells_written_as_plain_values(self):
        table = aggregate.DistributionTable(
            ("EN", "FR"), (19, 20),
            {("EN", 19): None, ("EN", 20): 3.0, ("FR", 19): 1 / 3}, "ratio")
        buf = io.StringIO()
        write_distribution_csv(buf, [table])
        assert buf.getvalue() == ("row_key,col_key,value,normalization\n"
                                  "EN,19,,ratio\n"
                                  "EN,20,3.0,ratio\n"
                                  "FR,19,0.3333333333333333,ratio\n")

    def test_locality_null_marker_is_empty_field(self, corpus):
        registry, toplists = corpus
        ratios = aggregate.locality_ratio(toplists, registry)
        buf = io.StringIO()
        write_locality_csv(buf, [ratios])
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        nulls = [r for r in rows if r[2] == ""]
        values = [r for r in rows if r[2] != ""]
        assert len(rows) == len(ratios.row_keys) * len(ratios.col_keys)
        assert all(0.0 <= float(r[2]) <= 1.0 for r in values)
        assert nulls or values

    def test_gender_csv_contains_mean_row(self, corpus):
        registry, toplists = corpus
        buf = io.StringIO()
        write_gender_csv(buf, aggregate.gender_distribution(toplists, registry))
        assert any(line.startswith("mean,female,") for line
                   in buf.getvalue().splitlines())

    def test_language_counts_empty_for_missing_algorithm(self, corpus):
        registry, toplists = corpus
        rows = aggregate.language_representation(
            registry, toplists, aggregate.global_ranking(toplists)[:100])
        buf = io.StringIO()
        write_language_counts_csv(buf, rows)
        for line in buf.getvalue().splitlines()[1:]:
            language, n1, n2, n3, n4 = line.split(",")
            assert n3 == "" and n4 == ""
            if language == "WR":
                assert n2 == ""

    def test_overlap_json_stable(self):
        buf = io.StringIO()
        write_overlap_json(buf, {"overlap": 3, "algorithm": "pagerank"})
        payload = json.loads(buf.getvalue())
        assert payload == {"overlap": 3, "algorithm": "pagerank"}


class TestRankCsvSlices:
    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    def test_slices_of_three_write_the_bytes_of_one_slice(self, monkeypatch,
                                                          name):
        g = BLOCK_GRAPHS[name]()
        assert g.node_count <= registry.ORDERING_SLICE
        labels = tuple(f"n,{i}" if i % 3 == 0 else f"n{i}"
                       for i in range(g.node_count))
        pr, cr = pagerank(g), cheirank(g)
        kp, kc = rank_indices(pr), rank_indices(cr)
        result = two_d_rank(kp, kc)

        def written():
            files = []
            for node_labels in (None, labels):
                for write, args in ((write_rank_csv, (pr, kp)),
                                    (write_two_d_rank_csv, (kp, kc, result))):
                    stream = io.StringIO()
                    write(stream, *args, node_labels)
                    files.append(stream.getvalue())
            return files

        one_slice = written()
        assert all(text.count("\n") == g.node_count + 1 for text in one_slice)
        monkeypatch.setattr(registry, "ORDERING_SLICE", 3)
        assert written() == one_slice


class TestCultureFiles:
    def test_network_csv_rows_match_weights(self, corpus):
        registry, toplists = corpus
        net = build_culture_network(toplists, registry)
        buf = io.StringIO()
        write_culture_network_csv(buf, net)
        total = 0
        for line in buf.getvalue().splitlines()[1:]:
            source, target, weight = line.split(",")
            assert source != target
            assert net.weights[CULTURE_INDEX[source],
                               CULTURE_INDEX[target]] == int(weight)
            total += int(weight)
        assert total == int(net.weights.sum())

    def test_matrix_csv_columns_sum_to_one(self, corpus):
        registry, toplists = corpus
        net = build_culture_network(toplists, registry)
        matrix = culture_google_matrix(net, 0.85)
        ranks = culture_ranks(net)
        buf = io.StringIO()
        write_culture_matrix_csv(buf, matrix, ranks.pagerank_ordering)
        lines = buf.getvalue().splitlines()
        values = np.array([[float(x) for x in line.split(",")[1:]]
                           for line in lines[1:]])
        assert values.shape == (25, 25)
        assert np.abs(values.sum(axis=0) - 1.0).max() <= 1e-12


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        with atomic_write(target) as f:
            f.write("one")
        assert target.read_text() == "one"
        with atomic_write(target) as f:
            f.write("two")
        assert target.read_text() == "two"

    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "file.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as f:
                f.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
