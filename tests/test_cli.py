"""End-to-end CLI runs over a small synthetic three-edition world."""
import csv
import json
import logging
import subprocess
import sys

import pytest

from gmrank.cli import (EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        load_config, main)

from conftest import GOLDEN, rank_columns

# persons of the mini world: (person_id, country, year, gender, titles per edition)
PERSONS = [
    ("Napoleon", "FR", 1769, "male",
     {"EN": "Napoleon", "FR": "Napoléon_Ier", "DE": "Napoleon_Bonaparte"}),
    ("Carl_Linnaeus", "SE", 1707, "male",
     {"EN": "Carl_Linnaeus", "FR": "Carl_von_Linné", "DE": "Carl_von_Linné"}),
    ("Jesus", "PS", -4, "male",
     {"EN": "Jesus", "FR": "Jésus", "DE": "Jesus_von_Nazaret"}),
    ("Marie_Curie", "PL", 1867, "female",
     {"EN": "Marie_Curie", "FR": "Marie_Curie", "DE": "Marie_Curie"}),
    ("Johann_Wolfgang_von_Goethe", "DE", 1749, "male",
     {"EN": "Johann_Wolfgang_von_Goethe", "FR": "Johann_Wolfgang_von_Goethe",
      "DE": "Johann_Wolfgang_von_Goethe"}),
    ("William_Shakespeare", "UK", 1564, "male",
     {"EN": "William_Shakespeare", "FR": "William_Shakespeare",
      "DE": "William_Shakespeare"}),
    ("Confucius", "CN", -551, "male",
     {"EN": "Confucius", "FR": "Confucius", "DE": "Konfuzius"}),
    ("Ada_Lovelace", "UK", 1815, "female",
     {"EN": "Ada_Lovelace", "FR": "Ada_Lovelace", "DE": "Ada_Lovelace"}),
]

# planted per-edition pagerank order: (person_id, in-link count), descending
PLANT = {
    "EN": [("Napoleon", 12), ("Carl_Linnaeus", 9), ("Jesus", 7),
           ("William_Shakespeare", 5), ("Ada_Lovelace", 3), ("Marie_Curie", 2)],
    "FR": [("Napoleon", 12), ("Jesus", 9), ("Carl_Linnaeus", 7),
           ("Johann_Wolfgang_von_Goethe", 4), ("Marie_Curie", 2)],
    "DE": [("Johann_Wolfgang_von_Goethe", 12), ("Napoleon", 9),
           ("Carl_Linnaeus", 6), ("Jesus", 4), ("Confucius", 2)],
}


def build_world(root):
    titles = {pid: t for pid, _, _, _, t in PERSONS}
    for code, plant in PLANT.items():
        lines = [f"# {code} mini hyperlink network"]
        fillers = [f"Topic_{code}_{i:02d}" for i in range(14)]
        for i in range(len(fillers) - 1):
            lines.append(f"{fillers[i]} {fillers[i + 1]}")
        for pid, links in plant:
            title = titles[pid][code]
            for i in range(links):
                lines.append(f"{fillers[i]} {title}")
        (root / f"{code.lower()}.edges").write_text("\n".join(lines) + "\n",
                                                    encoding="utf-8")
    rows = ["person_id\tbirth_country\tbirth_year\tgender\tEN\tFR\tDE"]
    for pid, country, year, gender, t in PERSONS:
        rows.append("\t".join([pid, country, str(year), gender,
                               t["EN"], t["FR"], t["DE"]]))
    (root / "persons.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (root / "config.ini").write_text(
        "alpha = 0.85\n"
        "tol = 1e-10\n"
        "max_iter = 1000\n"
        "top_n = 100\n"
        "persons = persons.tsv\n"
        "output_dir = out\n"
        "cache_dir = cache\n"
        "[editions]\n"
        "EN = en.edges\n"
        "FR = fr.edges\n"
        "DE = de.edges\n", encoding="utf-8")
    return root / "config.ini"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    config_path = build_world(root)
    # extract top lists for both algorithms once; later tests consume them
    assert main(["top-people", "--config", str(config_path), "--all"]) == EXIT_OK
    assert main(["top-people", "--config", str(config_path), "--all",
                 "--algorithm", "2drank"]) == EXIT_OK
    return root


def read_csv(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f))


class TestRankCommand:
    def test_two_node_fixture_matches_oracle(self, tmp_path):
        graph = tmp_path / "two.edges"
        graph.write_text("0 1\n")
        out = tmp_path / "ranks.csv"
        assert main(["rank", str(graph), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert rows[0]["node_id"] == "1" and rows[0]["rank"] == "1"
        assert float(rows[0]["probability"]) == pytest.approx(0.6491228, abs=1e-6)
        assert float(rows[1]["probability"]) == pytest.approx(0.3508772, abs=1e-6)

    def test_2drank_emits_all_three_indices(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 0\n0 2\n")
        out = tmp_path / "ranks.csv"
        assert main(["rank", str(graph), "--algorithm", "2drank",
                     "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert set(rows[0]) == {"node_id", "label", "k", "kstar", "kprime"}
        for row in rows:
            assert int(row["kprime"]) == max(int(row["k"]), int(row["kstar"]))

    def test_warm_cache_byte_identical(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 0\n1 0\n")
        out = tmp_path / "ranks.csv"
        cache_dir = tmp_path / "cache"
        args = ["rank", str(graph), "--out", str(out),
                "--cache-dir", str(cache_dir)]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert len(list(cache_dir.iterdir())) == 1
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_corrupt_cache_recomputed_with_warning(self, tmp_path, caplog):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 0\n")
        out = tmp_path / "ranks.csv"
        cache_dir = tmp_path / "cache"
        args = ["rank", str(graph), "--out", str(out),
                "--cache-dir", str(cache_dir)]
        assert main(args) == EXIT_OK
        reference = out.read_bytes()
        cache_file = next(cache_dir.iterdir())
        cache_file.write_bytes(b"JUNK" + b"\x00" * 40)
        with caplog.at_level(logging.WARNING):
            assert main(args) == EXIT_OK
        assert "corrupt cache" in caplog.text
        assert out.read_bytes() == reference

    def test_parse_error_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "bad.edges"
        graph.write_text("0 1 2\n")
        assert main(["rank", str(graph), "--out",
                     str(tmp_path / "o.csv")]) == EXIT_INPUT

    def test_nonconvergence_exit_3(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n0 2\n1 2\n")
        assert main(["rank", str(graph), "--out", str(tmp_path / "o.csv"),
                     "--max-iter", "1", "--tol", "1e-15"]) == EXIT_NUMERIC

    def test_alpha_one_rejected(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n")
        assert main(["rank", str(graph), "--out", str(tmp_path / "o.csv"),
                     "--alpha", "1.0"]) == EXIT_INPUT

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 0\n2 0\n")
        env_cache = tmp_path / "env_cache"
        monkeypatch.setenv("GMRANK_CACHE_DIR", str(env_cache))
        assert main(["rank", str(graph),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        assert len(list(env_cache.glob("*.gmrk"))) == 1

    def test_cache_dir_env_wins_over_flag(self, tmp_path, monkeypatch):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 0\n2 0\n")
        env_cache = tmp_path / "env_cache"
        flag_cache = tmp_path / "flag_cache"
        monkeypatch.setenv("GMRANK_CACHE_DIR", str(env_cache))
        assert main(["rank", str(graph), "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(flag_cache)]) == EXIT_OK
        assert len(list(env_cache.glob("*.gmrk"))) == 1
        assert not flag_cache.exists()

    def test_cache_keyed_by_self_loop_policy(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GMRANK_CACHE_DIR", raising=False)
        graph = tmp_path / "loops.edges"
        graph.write_text("0 0\n0 1\n1 2\n2 0\n1 1\n")
        cached, fresh = tmp_path / "cached.csv", tmp_path / "fresh.csv"
        args = ["rank", str(graph), "--cache-dir", str(tmp_path / "cache")]
        assert main(args + ["--out", str(cached)]) == EXIT_OK
        assert main(args + ["--out", str(cached), "--keep-self-loops"]) == EXIT_OK
        assert main(["rank", str(graph), "--out", str(fresh),
                     "--keep-self-loops"]) == EXIT_OK
        assert cached.read_bytes() == fresh.read_bytes()
        probs = [float(r["probability"]) for r in
                 sorted(read_csv(cached), key=lambda r: int(r["node_id"]))]
        assert probs == pytest.approx([0.4023, 0.3843, 0.2133], abs=1e-4)

    def test_cache_keyed_by_label_mode(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GMRANK_CACHE_DIR", raising=False)
        graph = tmp_path / "g.edges"
        graph.write_text("2 0\n0 1\n1 0\n")
        out = tmp_path / "o.csv"
        args = ["rank", str(graph), "--out", str(out),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == EXIT_OK
        assert main(args + ["--labels"]) == EXIT_OK
        assert read_csv(out)[0]["label"] == "0"

    def test_labeled_graph_rank(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("alpha beta\nbeta alpha\ngamma alpha\n")
        out = tmp_path / "o.csv"
        assert main(["rank", str(graph), "--labels", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert rows[0]["label"] == "alpha"    # most cited node wins


class TestTopPeople:
    def test_planted_ordering_reproduced(self, world):
        rows = read_csv(world / "out" / "toplists" / "EN_pagerank.csv")
        assert [r["person_id"] for r in rows] == [p for p, _ in PLANT["EN"]]
        assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))

    def test_cultures_joined(self, world):
        rows = read_csv(world / "out" / "toplists" / "EN_pagerank.csv")
        by_id = {r["person_id"]: r for r in rows}
        assert by_id["Napoleon"]["culture"] == "FR"
        assert by_id["Jesus"]["culture"] == "AR"
        assert by_id["Jesus"]["century"] == "-1"
        assert by_id["Carl_Linnaeus"]["culture"] == "SV"

    def test_n_smaller_than_available(self, world, tmp_path):
        config = load_config(world / "config.ini")
        out_dir = tmp_path / "small"
        assert main(["top-people", "--config", str(world / "config.ini"),
                     "--edition", "EN", "--top-n", "3",
                     "--output-dir", str(out_dir)]) == EXIT_OK
        rows = read_csv(out_dir / "toplists" / "EN_pagerank.csv")
        assert len(rows) == 3

    def test_unconfigured_edition_exit_2(self, world):
        assert main(["top-people", "--config", str(world / "config.ini"),
                     "--edition", "JA"]) == EXIT_INPUT

    def test_no_matches_writes_empty_list_exit_0(self, tmp_path, caplog):
        root = tmp_path
        (root / "x.edges").write_text("a b\nb c\n")
        (root / "persons.tsv").write_text(
            "person_id\tbirth_country\tbirth_year\tgender\tEN\n"
            "Nobody\tUS\t1900\tmale\tNobody\n")
        (root / "config.ini").write_text(
            "persons = persons.tsv\noutput_dir = out\n[editions]\nEN = x.edges\n")
        with caplog.at_level(logging.WARNING):
            assert main(["top-people", "--config", str(root / "config.ini"),
                         "--edition", "EN"]) == EXIT_OK
        rows = read_csv(root / "out" / "toplists" / "EN_pagerank.csv")
        assert rows == []


class TestGlobal:
    def test_outputs_match_brute_force(self, world):
        assert main(["global", "--config", str(world / "config.ini"),
                     "--women"]) == EXIT_OK
        rows = read_csv(world / "out" / "pagerank_global_ranking.csv")
        # brute force from the emitted top lists
        tally = {}
        for code in PLANT:
            for row in read_csv(world / "out" / "toplists" / f"{code}_pagerank.csv"):
                tally.setdefault(row["person_id"], []).append(int(row["rank"]))
        expected = sorted(
            ((pid, sum(101 - r for r in ranks), len(ranks),
              sum(ranks) / len(ranks)) for pid, ranks in tally.items()),
            key=lambda t: (-t[1], -t[2], t[3], t[0]))
        got = [(r["person_id"], int(r["theta"]), int(r["n_appear"]),
                float(r["mean_rank"])) for r in rows]
        assert got == expected
        # Napoleon leads: rank 1 in EN and FR, rank 2 in DE
        assert rows[0]["person_id"] == "Napoleon"
        assert int(rows[0]["theta"]) == 100 + 100 + 99

    def test_women_variant(self, world):
        rows = read_csv(world / "out" / "pagerank_global_ranking_female.csv")
        ids = [r["person_id"] for r in rows]
        assert set(ids) == {"Marie_Curie", "Ada_Lovelace"}

    def test_distribution_files_written(self, world):
        for name in ("spatial_distribution", "temporal_distribution",
                     "locality_ratio", "gender_distribution",
                     "language_counts", "culture_top10"):
            assert (world / "out" / f"pagerank_{name}.csv").is_file()

    def test_spatial_conservation_in_emitted_file(self, world):
        rows = read_csv(world / "out" / "pagerank_spatial_distribution.csv")
        raw = [r for r in rows if r["normalization"] == "raw"]
        per_edition = {}
        for r in raw:
            per_edition[r["row_key"]] = per_edition.get(r["row_key"], 0) \
                + float(r["value"])
        for code in PLANT:
            assert per_edition[code] == len(PLANT[code])

    def test_reference_overlap_report(self, world, tmp_path):
        ref = tmp_path / "reference.txt"
        ref.write_text("Napoleon\nJesus\nSomeone_Else\n")
        assert main(["global", "--config", str(world / "config.ini"),
                     "--reference", str(ref)]) == EXIT_OK
        payload = json.loads(
            (world / "out" / "pagerank_overlap_report.json").read_text())
        assert payload["overlap"] == 2
        assert payload["reference_size"] == 3

    def test_missing_toplist_names_edition(self, world, tmp_path, caplog):
        out_dir = tmp_path / "empty_out"
        with caplog.at_level(logging.ERROR):
            code = main(["global", "--config", str(world / "config.ini"),
                         "--output-dir", str(out_dir)])
        assert code == EXIT_INPUT
        assert "EN" in caplog.text

    def test_rerun_byte_identical(self, world):
        target = world / "out" / "pagerank_global_ranking.csv"
        before = target.read_bytes()
        assert main(["global", "--config", str(world / "config.ini")]) == EXIT_OK
        assert target.read_bytes() == before


class TestCulture:
    def test_outputs_and_conservation(self, world):
        assert main(["culture", "--config", str(world / "config.ini")]) == EXIT_OK
        net_rows = read_csv(world / "out" / "pagerank_culture_network.csv")
        # independent recount from the emitted top lists and the persons file
        cultures = {"Napoleon": "FR", "Carl_Linnaeus": "SV", "Jesus": "AR",
                    "Marie_Curie": "PL", "Johann_Wolfgang_von_Goethe": "DE",
                    "William_Shakespeare": "EN", "Confucius": "ZH",
                    "Ada_Lovelace": "EN"}
        expected = {}
        own = {}
        for code in PLANT:
            for row in read_csv(world / "out" / "toplists" / f"{code}_pagerank.csv"):
                culture = cultures[row["person_id"]]
                if culture == code:
                    own[code] = own.get(code, 0) + 1
                else:
                    expected[(code, culture)] = expected.get((code, culture), 0) + 1
        got = {(r["from"], r["to"]): int(r["weight"]) for r in net_rows}
        assert got == expected
        for code in PLANT:
            outgoing = sum(w for (a, _), w in got.items() if a == code)
            assert outgoing + own.get(code, 0) == len(PLANT[code])

    def test_matrix_columns_sum_to_one(self, world):
        with open(world / "out" / "pagerank_culture_matrix.csv",
                  encoding="utf-8") as f:
            lines = f.read().splitlines()
        matrix = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        for j in range(25):
            assert sum(row[j] for row in matrix) == pytest.approx(1.0, abs=1e-12)

    def test_century_filter_changes_tallies(self, world):
        assert main(["culture", "--config", str(world / "config.ini"),
                     "--before-century", "19"]) == EXIT_OK
        unfiltered = read_csv(world / "out" / "pagerank_culture_network.csv")
        filtered = read_csv(world / "out" / "pagerank_culture_network_before19.csv")
        total_unfiltered = sum(int(r["weight"]) for r in unfiltered)
        total_filtered = sum(int(r["weight"]) for r in filtered)
        # Marie Curie (born 1867, century 19) no longer creates EN/FR links
        assert total_filtered < total_unfiltered
        assert all(int(r["weight"]) > 0 for r in filtered)

    def test_ranks_file_structure(self, world):
        rows = read_csv(world / "out" / "pagerank_culture_ranks.csv")
        assert len(rows) == 25
        ks = sorted(int(r["k"]) for r in rows)
        assert ks == list(range(1, 26))
        for r in rows:
            assert int(r["kprime"]) == max(int(r["k"]), int(r["kstar"]))

    @pytest.mark.parametrize("before", [None, 19])
    def test_outputs_match_golden_files(self, world, before):
        # pins the dense Google-matrix formula; the probability columns of
        # the ranks file go through BLAS gemv, so only k, kstar and kprime
        # are compared there
        args = ["culture", "--config", str(world / "config.ini")]
        if before is not None:
            args += ["--before-century", str(before)]
        assert main(args) == EXIT_OK
        suffix = f"_before{before}" if before is not None else ""
        for kind in ("network", "matrix"):
            name = f"pagerank_culture_{kind}{suffix}.csv"
            assert ((world / "out" / name).read_bytes()
                    == (GOLDEN / name).read_bytes()), name
        name = f"pagerank_culture_ranks{suffix}.csv"
        assert (rank_columns((world / "out" / name).read_text(encoding="utf-8"))
                == (GOLDEN / name).read_text(encoding="utf-8")), name


class TestConfig:
    def test_alpha_one_rejected_at_validation(self, world):
        assert main(["global", "--config", str(world / "config.ini"),
                     "--alpha", "1.0"]) == EXIT_INPUT

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)

    def test_duplicate_edition_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[editions]\nEN = a\nEN = b\n")
        config = load_config(bad)
        with pytest.raises(ConfigError, match="duplicate"):
            config.validate()

    def test_relative_paths_resolve_against_config(self, world):
        config = load_config(world / "config.ini")
        assert config.persons_path == world / "persons.tsv"
        assert config.edition_path("EN") == world / "en.edges"


class TestSelfcheckCommand:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_console_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "gmrank.cli", "selfcheck"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "PASS" in result.stdout
