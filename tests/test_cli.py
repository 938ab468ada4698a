"""End-to-end CLI runs over a small synthetic three-edition world."""
import csv
import io
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gmrank import aggregate, cache, cli, cultures, registry
from gmrank.cli import (EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        load_config, main)
from gmrank.graph import MAX_NODE_COUNT, DirectedGraph
from gmrank.rank import GoogleParams
from gmrank.registry import PersonRegistry, default_culture_map

from conftest import GOLDEN, rank_columns

# CSV outputs of ``global --women``; each file name starts with the algorithm
GLOBAL_OUTPUTS = ("global_ranking", "global_ranking_female", "culture_top10",
                  "spatial_distribution", "temporal_distribution",
                  "locality_ratio", "gender_distribution", "language_counts")

RANK_ALGORITHMS = ("pagerank", "cheirank", "2drank")

# integer-id graph for the rank golden files: a duplicate edge, two
# self-loops, a dangling node 5 and an isolated node 6
INT_EDGES = ("# nodes: 7\n0 1\n0 1\n1 2\n2 0\n2 3\n3 3\n3 1\n4 2\n4 0\n"
             "1 5\n4 4\n")

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


@pytest.fixture(scope="module")
def global_run(world):
    """``global --women`` run once, for the tests that read its outputs."""
    assert main(["global", "--config", str(world / "config.ini"),
                 "--women"]) == EXIT_OK


@pytest.fixture(scope="module")
def culture_runs(world):
    """``culture`` run once plain and once before century 19."""
    for extra in ([], ["--before-century", "19"]):
        assert main(["culture", "--config", str(world / "config.ini"),
                     *extra]) == EXIT_OK


def read_csv(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f))


def cache_layout(cache_dir):
    """Files in ``cache_dir`` counted by suffix: .gmrk vectors, .gmrg graphs
    and .gmrp registries."""
    return Counter(p.suffix for p in cache_dir.iterdir())


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
        assert cache_layout(cache_dir) == {".gmrk": 1, ".gmrg": 1}
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
        cache_file = next(cache_dir.glob("*.gmrk"))
        cache_file.write_bytes(b"JUNK" + b"\x00" * 40)
        with caplog.at_level(logging.WARNING):
            assert main(args) == EXIT_OK
        assert "unusable cache file" in caplog.text
        assert out.read_bytes() == reference

    def test_parse_error_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "bad.edges"
        graph.write_text("0 1 2\n")
        assert main(["rank", str(graph), "--out",
                     str(tmp_path / "o.csv")]) == EXIT_INPUT

    def test_node_id_over_key_limit_exit_2(self, tmp_path, caplog):
        # one edge to node 999999999999 asks for 1e12 nodes: refused before
        # any per-node array is allocated
        graph = tmp_path / "huge.edges"
        graph.write_text("0 999999999999\n")
        with caplog.at_level(logging.ERROR):
            assert main(["rank", str(graph), "--out",
                         str(tmp_path / "o.csv")]) == EXIT_INPUT
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "node count 1000000000000 over the limit" in errors[0].getMessage()
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, tmp_path, caplog, tol):
        # NaN passes a plain tol <= 0 check and would run every sweep, then
        # exit 3; inf would stop after one sweep and exit 0
        graph = tmp_path / "tri.edges"
        graph.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "o.csv"
        with caplog.at_level(logging.ERROR):
            assert main(["rank", str(graph), "--out", str(out), "--tol", tol,
                         "--max-iter", "50"]) == EXIT_INPUT
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "tol must be positive and finite" in errors[0].getMessage()
        assert not out.exists()

    @pytest.mark.parametrize("text, node_count", [
        ("0 3000000000\n", 3_000_000_001),
        ("# nodes: 3000000000\n0 1\n", 3_000_000_000),
    ], ids=["largest-id", "header"])
    def test_node_count_over_edge_list_limit_exit_2(self, tmp_path, caplog,
                                                    monkeypatch, text,
                                                    node_count):
        # each per-node array would take about 24 GB; the memory estimate,
        # which runs after the node limit, is stubbed so a missing guard
        # fails here instead of allocating
        def estimate():
            raise AssertionError("memory estimate reached")
        monkeypatch.setattr("gmrank.graph._memory_limit", estimate)
        graph = tmp_path / "huge.edges"
        graph.write_text(text)
        with caplog.at_level(logging.ERROR):
            assert main(["rank", str(graph), "--out",
                         str(tmp_path / "o.csv")]) == EXIT_INPUT
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage() == (
            f"node count {node_count} over the limit {MAX_NODE_COUNT}")
        assert not (tmp_path / "o.csv").exists()

    def test_edge_count_over_limit_exit_2(self, tmp_path, caplog,
                                          monkeypatch):
        # a limit of 2 stands in for 2**31 - 1; the repeated pair counts once
        monkeypatch.setattr("gmrank.graph.MAX_EDGE_COUNT", 2)
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n0 1\n1 2\n2 0\n")
        with caplog.at_level(logging.ERROR):
            assert main(["rank", str(graph), "--out",
                         str(tmp_path / "o.csv")]) == EXIT_INPUT
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            "edge count 3 over the limit 2"]
        assert not (tmp_path / "o.csv").exists()

    @staticmethod
    def run_limited(argv, limit):
        """``gmrank argv`` in a child under an address-space limit."""
        resource = pytest.importorskip("resource")

        def limit_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        return subprocess.run(
            [sys.executable, "-m", "gmrank.cli", *argv],
            capture_output=True, text=True, env=env,
            preexec_fn=limit_address_space)

    def test_node_count_over_memory_limit_exit_2(self, tmp_path):
        # a child under a 1.5 GiB address-space limit is asked for 2**26
        # nodes, about 7.5 GiB to rank: refused before any per-node array
        graph = tmp_path / "huge.edges"
        graph.write_text("# nodes: 67108864\n0 1\n")
        result = self.run_limited(
            ["rank", str(graph), "--out", str(tmp_path / "o.csv")], 1536 << 20)
        assert result.returncode == EXIT_INPUT, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ERROR node count 67108864 needs about "
                                   "7.5 GiB to rank, over the ")
        assert lines[0].endswith(" GiB this process may use")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("message, line", [
        ("", "out of memory"),
        ("Unable to allocate 8.0 GiB",
         "out of memory: Unable to allocate 8.0 GiB"),
    ], ids=["bare", "numpy"])
    def test_out_of_memory_exit_2(self, tmp_path, caplog, monkeypatch,
                                  message, line):
        # an allocation the node-count estimate did not foresee, here after
        # the writer has begun the file
        def write(f, *args, **kwargs):
            f.write("node_id,label,probability,rank\n")
            raise MemoryError(message)
        monkeypatch.setattr(cli.tableio, "write_rank_csv", write)
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n")
        with caplog.at_level(logging.ERROR):
            assert main(["rank", str(graph), "--out",
                         str(tmp_path / "o.csv")]) == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == [line]
        assert [p.name for p in tmp_path.iterdir()] == ["g.edges"]

    @pytest.mark.parametrize("nodes, limit", [
        (8_000_000, 1 << 30), (4_400_000, 1 << 29)], ids=["1GiB", "0.5GiB"])
    def test_node_count_within_estimate_never_crashes(self, tmp_path, nodes,
                                                      limit):
        # the estimate allows these node counts under the limit, but the
        # interpreter, the 2drank writer's lists or the vectors may not fit:
        # the child exits 0 or 2, never with a traceback
        graph = tmp_path / "big.edges"
        graph.write_text(f"# nodes: {nodes}\n0 1\n")
        result = self.run_limited(
            ["rank", str(graph), "--algorithm", "2drank",
             "--out", str(tmp_path / "o.csv")], limit)
        assert result.returncode in (EXIT_OK, EXIT_INPUT), result.stderr
        assert "Traceback" not in result.stderr
        if result.returncode == EXIT_INPUT:
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("ERROR ")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["big.edges"]
        # a completed run writes a CSV of every node, 260 MB for 8M nodes
        (tmp_path / "o.csv").unlink(missing_ok=True)

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

    def test_cache_keyed_by_self_loop_policy(self, tmp_path):
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

    def test_cache_keyed_by_label_mode(self, tmp_path):
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

    @pytest.mark.parametrize("algorithm", RANK_ALGORITHMS)
    def test_labels_with_comma_or_quote_are_quoted(self, tmp_path, algorithm):
        # Wikipedia titles such as Washington,_D.C. hold commas
        graph = tmp_path / "g.edges"
        graph.write_text('Paris,_France Lyon\nLyon "Quote"x\n')
        out = tmp_path / "o.csv"
        assert main(["rank", str(graph), "--labels", "--algorithm", algorithm,
                     "--out", str(out)]) == EXIT_OK
        with open(out, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        width = 5 if algorithm == "2drank" else 4
        assert {len(row) for row in rows} == {width}
        assert sorted(row[1] for row in rows[1:]) == [
            '"Quote"x', "Lyon", "Paris,_France"]

    @pytest.mark.parametrize("algorithm", RANK_ALGORITHMS)
    def test_integer_ids_match_golden_file(self, tmp_path, algorithm):
        graph = tmp_path / "ids.edges"
        graph.write_text(INT_EDGES)
        out = tmp_path / "o.csv"
        assert main(["rank", str(graph), "--algorithm", algorithm,
                     "--out", str(out)]) == EXIT_OK
        name = f"rank_ids_{algorithm}.csv"
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name

    @pytest.mark.parametrize("algorithm", RANK_ALGORITHMS)
    def test_labels_match_golden_file(self, world, tmp_path, algorithm):
        out = tmp_path / "o.csv"
        assert main(["rank", str(world / "en.edges"), "--labels",
                     "--algorithm", algorithm, "--out", str(out)]) == EXIT_OK
        name = f"rank_labels_{algorithm}.csv"
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


class TestTopPeople:
    def test_planted_ordering_reproduced(self, world):
        rows = read_csv(world / "out" / "toplists" / "EN_pagerank.csv")
        assert [r["person_id"] for r in rows] == [p for p, _ in PLANT["EN"]]
        assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))

    @pytest.mark.parametrize("algorithm", ["pagerank", "2drank"])
    def test_lists_match_golden_files(self, world, algorithm):
        for code in PLANT:
            name = f"{code}_{algorithm}.csv"
            assert ((world / "out" / "toplists" / name).read_bytes()
                    == (GOLDEN / f"toplist_{name}").read_bytes()), name

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

    @pytest.mark.parametrize("algorithm", ["pagerank", "2drank"])
    def test_empty_lists_reingested_by_global_and_culture(self, tmp_path,
                                                          algorithm):
        (tmp_path / "x.edges").write_text("a b\nb c\n")
        (tmp_path / "persons.tsv").write_text(
            "person_id\tbirth_country\tbirth_year\tgender\tEN\n"
            "Nobody\tUS\t1900\tmale\tNobody\n")
        config = tmp_path / "config.ini"
        config.write_text(
            "persons = persons.tsv\noutput_dir = out\n[editions]\nEN = x.edges\n")
        for command in ("top-people --all", "global --women", "culture"):
            assert main(command.split() + ["--config", str(config),
                                           "--algorithm", algorithm]) == EXIT_OK
        out = tmp_path / "out"
        assert read_csv(out / f"{algorithm}_global_ranking.csv") == []
        assert read_csv(out / f"{algorithm}_culture_network.csv") == []

    @pytest.mark.parametrize("tail, message", [
        (b"a b c\n", "line {line}: expected 2 tokens, found 3"),
        (b"a \xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["bad-line", "not-utf8"])
    def test_edge_list_error_names_its_file(self, world, tmp_path, caplog,
                                            tail, message):
        # one of three editions is bad: the error says which
        root = _copy_world(world, tmp_path)
        graph = root / "fr.edges"
        line = graph.read_bytes().count(b"\n") + 1
        with open(graph, "ab") as f:
            f.write(tail)
        with caplog.at_level(logging.ERROR):
            code = main(["top-people", "--config", str(root / "config.ini"),
                         "--all"])
        assert code == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith(f"{graph}: {message.format(line=line)}")


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

    @pytest.mark.usefixtures("global_run")
    def test_women_variant(self, world):
        rows = read_csv(world / "out" / "pagerank_global_ranking_female.csv")
        ids = [r["person_id"] for r in rows]
        assert set(ids) == {"Marie_Curie", "Ada_Lovelace"}

    @pytest.mark.usefixtures("global_run")
    def test_distribution_files_written(self, world):
        for name in ("spatial_distribution", "temporal_distribution",
                     "locality_ratio", "gender_distribution",
                     "language_counts", "culture_top10"):
            assert (world / "out" / f"pagerank_{name}.csv").is_file()

    @pytest.mark.usefixtures("global_run")
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

    @pytest.mark.usefixtures("global_run")
    def test_rerun_byte_identical(self, world):
        target = world / "out" / "pagerank_global_ranking.csv"
        before = target.read_bytes()
        assert main(["global", "--config", str(world / "config.ini")]) == EXIT_OK
        assert target.read_bytes() == before

    @pytest.mark.parametrize("algorithm", ["pagerank", "2drank"])
    def test_outputs_match_golden_files(self, world, tmp_path, algorithm):
        # the reference file's name is part of the overlap report
        ref = tmp_path / "reference.txt"
        ref.write_text("Napoleon\nJesus\nSomeone_Else\n")
        out_dir = tmp_path / "out"
        shutil.copytree(world / "out" / "toplists", out_dir / "toplists")
        assert main(["global", "--config", str(world / "config.ini"),
                     "--algorithm", algorithm, "--women",
                     "--reference", str(ref),
                     "--output-dir", str(out_dir)]) == EXIT_OK
        names = [f"{algorithm}_{name}.csv" for name in GLOBAL_OUTPUTS]
        names.append(f"{algorithm}_overlap_report.json")
        for name in names:
            assert ((out_dir / name).read_bytes()
                    == (GOLDEN / name).read_bytes()), name


class TestCulture:
    def test_missing_toplist_names_edition(self, world, tmp_path, caplog):
        out_dir = tmp_path / "empty_out"
        with caplog.at_level(logging.ERROR):
            code = main(["culture", "--config", str(world / "config.ini"),
                         "--output-dir", str(out_dir)])
        assert code == EXIT_INPUT
        assert "missing top list for edition EN" in caplog.text

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

    @pytest.mark.usefixtures("culture_runs")
    def test_matrix_columns_sum_to_one(self, world):
        with open(world / "out" / "pagerank_culture_matrix.csv",
                  encoding="utf-8") as f:
            lines = f.read().splitlines()
        matrix = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        for j in range(25):
            assert sum(row[j] for row in matrix) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.usefixtures("culture_runs")
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

    @pytest.mark.usefixtures("culture_runs")
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


def _copy_world(world, tmp_path):
    """A copy of the world with its top lists but no other output or cache."""
    root = tmp_path / "world"
    shutil.copytree(world, root, ignore=shutil.ignore_patterns("cache", "out"))
    shutil.copytree(world / "out" / "toplists", root / "out" / "toplists")
    return root


def _unregister(world, tmp_path, person_id):
    """A copy of the world whose persons file lacks ``person_id``."""
    root = _copy_world(world, tmp_path)
    persons = root / "persons.tsv"
    lines = persons.read_text(encoding="utf-8").splitlines(keepends=True)
    persons.write_text("".join(l for l in lines
                               if not l.startswith(person_id + "\t")),
                       encoding="utf-8")
    return root


class TestUnregisteredPerson:
    @pytest.mark.parametrize("command", ["global", "culture"])
    def test_exit_2_naming_edition_and_person(self, world, tmp_path, caplog,
                                               command):
        root = _unregister(world, tmp_path, "Confucius")   # in DE only
        with caplog.at_level(logging.ERROR):
            code = main([command, "--config", str(root / "config.ini")])
        assert code == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "edition DE" in errors[0] and "'Confucius'" in errors[0]
        # the check runs before any output is written
        assert [p.name for p in (root / "out").iterdir()] == ["toplists"]


class TestUnreadableReference:
    @pytest.mark.parametrize("content", [None, b"Napoleon\n\xff\n"],
                             ids=["missing", "not-utf8"])
    def test_exit_2_before_any_output(self, world, tmp_path, caplog, content):
        root = _copy_world(world, tmp_path)
        reference = root / "reference.txt"
        if content is not None:
            reference.write_bytes(content)
        with caplog.at_level(logging.ERROR):
            code = main(["global", "--config", str(root / "config.ini"),
                         "--reference", str(reference)])
        assert code == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        # the reference list is read before any output is written
        assert [p.name for p in (root / "out").iterdir()] == ["toplists"]


class TestDuplicateTitle:
    @pytest.mark.parametrize("command", ["global", "culture"])
    def test_titles_equal_after_nfc_exit_2(self, world, tmp_path, caplog,
                                           command):
        # FR 'Jésus' of Jesus is composed; this one is e + combining acute
        root = _copy_world(world, tmp_path)
        persons = root / "persons.tsv"
        with open(persons, "a", encoding="utf-8") as f:
            f.write("Jesus_2\tPS\t1\tmale\tJesus_2\tJe\u0301sus\tJesus_2\n")
        with caplog.at_level(logging.ERROR):
            code = main([command, "--config", str(root / "config.ini")])
        assert code == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == ["duplicate title 'Je\u0301sus' in edition FR: "
                          "'Jesus' vs 'Jesus_2'"]
        assert [p.name for p in (root / "out").iterdir()] == ["toplists"]


class TestOversizedPersonsField:
    @pytest.mark.parametrize("command", ["top-people", "global"])
    def test_exit_2_naming_line(self, world, tmp_path, caplog, command):
        root = _copy_world(world, tmp_path)
        with open(root / "persons.tsv", "a", encoding="utf-8") as f:
            f.write(f"Long\tXX\t1\tmale\tLong\t{'x' * (1 << 17)}x\tLong\n")
        args = [command, "--config", str(root / "config.ini")]
        args += ["--all"] * (command == "top-people")
        with caplog.at_level(logging.ERROR):
            assert main(args) == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == [
            "persons line 10: field larger than field limit (131072)"]


class TestMalformedToplist:
    @pytest.mark.parametrize("command", ["global", "culture"])
    @pytest.mark.parametrize("text, message", [
        (lambda good: "",
         "line 1: expected the top-list header, got an empty file"),
        (lambda good: good.replace(",18,male\n", "\n", 1),
         "line 2: expected 9 fields, got 7"),
        (lambda good: good.replace("DE,pagerank,Napoleon,Napoleon_Bonaparte,2,",
                                   "DE,pagerank,Napoleon,Napoleon_Bonaparte,two,"),
         "line 3: rank must be an integer, got 'two'"),
        (lambda good: good.replace("Napoleon_Bonaparte", "x" * (1 << 17) + "x"),
         "line 3: field larger than field limit (131072)"),
    ], ids=["empty", "short-row", "non-integer-rank", "oversized-field"])
    def test_exit_2_naming_file_and_line(self, world, tmp_path, caplog,
                                         command, text, message):
        root = _copy_world(world, tmp_path)
        path = root / "out" / "toplists" / "DE_pagerank.csv"
        path.write_text(text(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            code = main([command, "--config", str(root / "config.ini")])
        assert code == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == [f"top list {path}: {message}"]
        assert [p.name for p in (root / "out").iterdir()] == ["toplists"]


class TestRemovedFlags:
    @pytest.mark.parametrize("command, flag", [
        ("global", "--alpha"), ("global", "--tol"), ("global", "--max-iter"),
        ("culture", "--tol"), ("culture", "--max-iter")])
    def test_rejected_by_argparse(self, world, capsys, command, flag):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--config", str(world / "config.ini"), flag, "1"])
        assert exc_info.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err


BOM = "\ufeff".encode("utf-8")

# the user text files of each kind in a world copy with a culture map and a
# reference list; its first lines are ones a kept mark would change
BOM_KINDS = {
    "edge-lists": ("en.edges", "fr.edges", "de.edges"),
    "persons": ("persons.tsv",),
    "culture-map": ("cultures.tsv",),
    "reference": ("reference.txt",),
    "config": ("config.ini",),
}


def _pipeline_outputs(world, root, marked=()):
    """Every output of ``top-people``, ``global`` and ``culture`` on a copy
    of the world at ``root`` whose files ``marked`` open with a BOM."""
    shutil.copytree(world, root, ignore=shutil.ignore_patterns("cache", "out"))
    config = root / "config.ini"
    config.write_text("culture_map = cultures.tsv\n"
                      + config.read_text(encoding="utf-8"), encoding="utf-8")
    config = str(config)
    (root / "cultures.tsv").write_text(
        "FR\tFR\nSE\tSV\nPS\tAR\nPL\tPL\nDE\tDE\nUK\tEN\nCN\tZH\n",
        encoding="utf-8")
    (root / "reference.txt").write_text("Napoleon\nJesus\nSomeone_Else\n",
                                        encoding="utf-8")
    for name in marked:
        path = root / name
        path.write_bytes(BOM + path.read_bytes())
    for args in (["top-people", "--config", config, "--all"],
                 ["global", "--config", config, "--women",
                  "--reference", str(root / "reference.txt")],
                 ["culture", "--config", config]):
        assert main(args) == EXIT_OK, args
    out = root / "out"
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestByteOrderMark:
    """A user text file that opens with a UTF-8 byte-order mark loads as
    the same file without it."""

    @pytest.mark.parametrize("kind", BOM_KINDS)
    def test_pipeline_outputs_unchanged(self, world, tmp_path,
                                        kind):
        plain = _pipeline_outputs(world, tmp_path / "plain")
        marked = _pipeline_outputs(world, tmp_path / "marked", BOM_KINDS[kind])
        assert len(plain) == 3 + 9 + 3       # top lists, global, culture
        assert marked == plain

    def test_toplists_unchanged(self, world, tmp_path):
        # in real-data mode the top lists come from the user too
        outputs = []
        for name, prefix in (("plain", b""), ("marked", BOM)):
            root = _copy_world(world, tmp_path / name)
            for path in (root / "out" / "toplists").iterdir():
                path.write_bytes(prefix + path.read_bytes())
            config = str(root / "config.ini")
            for args in (["global", "--config", config, "--women"],
                         ["culture", "--config", config]):
                assert main(args) == EXIT_OK, (name, args)
            outputs.append(_outputs(root / "out"))
        assert len(outputs[0]) == 8 + 3          # global, culture
        assert outputs[1] == outputs[0]

    def test_rank_labels_unchanged(self, tmp_path):
        outputs = []
        for name, prefix in (("plain", b""), ("marked", BOM)):
            graph, out = tmp_path / f"{name}.edges", tmp_path / f"{name}.csv"
            graph.write_bytes(prefix + b"a b\nb c\n")
            assert main(["rank", str(graph), "--labels",
                         "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        assert [row["label"] for row in read_csv(tmp_path / "marked.csv")
                if row["node_id"] == "0"] == ["a"]


# a graph whose integer ids skip 0-2 and include self-loops, so each of
# --labels and --keep-self-loops changes the parsed graph
def _property_graph(path):
    rng = np.random.default_rng(5)
    pairs = rng.integers(3, 40, size=(160, 2)).tolist()
    pairs += [[4, 4], [9, 9], [17, 17]]
    path.write_text("".join(f"{s} {t}\n" for s, t in pairs))
    return path


def _raise(*args, **kwargs):
    raise AssertionError("a warm cache must not parse or recompute")


class TestCacheRoundTrip:
    @pytest.mark.parametrize("algorithm", RANK_ALGORITHMS)
    @pytest.mark.parametrize("labels", [False, True])
    @pytest.mark.parametrize("keep_self_loops", [False, True])
    def test_no_cold_and_warm_cache_outputs_identical(
            self, tmp_path, monkeypatch, algorithm, labels, keep_self_loops):
        graph = _property_graph(tmp_path / "g.edges")
        cache_dir = tmp_path / "cache"
        served = 0
        # one cache directory for every flag set, so each run is offered
        # the vectors stored by the runs before it; --max-iter 3 comes
        # after 1000 and meets a stored vector of more sweeps
        for alpha, tol, max_iter in product(("0.85", "0.5"), ("1e-10", "1e-6"),
                                            ("1000", "3")):
            args = ["rank", str(graph), "--algorithm", algorithm,
                    "--alpha", alpha, "--tol", tol, "--max-iter", max_iter]
            args += ["--labels"] * labels + ["--keep-self-loops"] * keep_self_loops
            results, stored = {}, None
            for run in ("none", "cold", "warm"):
                out = tmp_path / f"{run}.csv"
                out.unlink(missing_ok=True)
                extra = [] if run == "none" else ["--cache-dir", str(cache_dir)]
                with monkeypatch.context() as m:
                    if run == "warm":
                        m.setattr(cli, "load_edge_list", _raise)
                        if results["none"][0] == EXIT_OK:
                            m.setattr(cli, "pagerank", _raise)
                            m.setattr(cli, "cheirank", _raise)
                    if run == "cold" and cache_dir.is_dir():
                        stored = {f: f.read_bytes() for f in cache_dir.iterdir()}
                    code = main(args + extra + ["--out", str(out)])
                results[run] = (code, out.read_bytes() if out.exists() else None)
            assert results["cold"] == results["none"]
            assert results["warm"] == results["none"]
            if results["none"][0] == EXIT_OK:
                served += 1
            else:                       # a failed run leaves the cache as it was
                assert results["none"][0] == EXIT_NUMERIC
                assert {f: f.read_bytes() for f in cache_dir.iterdir()} == stored
        assert served == 4
        assert cache_layout(cache_dir) == {
            ".gmrk": 4 * (2 if algorithm == "2drank" else 1), ".gmrg": 1}


def _rank_args(graph, cache_dir, out, label_mode=False, keep_self_loops=False):
    return (["rank", str(graph), "--algorithm", "2drank", "--out", str(out)]
            + ["--cache-dir", str(cache_dir)] * (cache_dir is not None)
            + ["--labels"] * label_mode
            + ["--keep-self-loops"] * keep_self_loops)


def _count_calls(monkeypatch, name):
    """The keyword arguments of each call of ``cli.<name>``, which still runs."""
    calls = []
    original = getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, name, counting)
    return calls


def _last_offset_off_by_one(raw):
    """A graph artifact whose in_indptr[-1] reads E + 1."""
    n, e = struct.unpack_from("<QQ", raw, 8)
    at = 40 + 4 * n
    return raw[:at] + struct.pack("<i", e + 1) + raw[at + 4:]


class TestGraphArtifact:
    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:-3],
        lambda raw: b"XXXX" + raw[4:],
        _last_offset_off_by_one,
    ], ids=["truncated", "wrong-magic", "inconsistent"])
    def test_corrupt_artifact_reparsed_and_rewritten(
            self, tmp_path, monkeypatch, caplog, corrupt):
        graph = _property_graph(tmp_path / "g.edges")
        cache_dir, out = tmp_path / "cache", tmp_path / "o.csv"
        assert main(_rank_args(graph, cache_dir, out, label_mode=True)) == EXIT_OK
        reference = out.read_bytes()
        artifact = next(cache_dir.glob("*.gmrg"))
        good = artifact.read_bytes()
        artifact.write_bytes(corrupt(good))
        parses = _count_calls(monkeypatch, "load_edge_list")
        with caplog.at_level(logging.WARNING):
            assert main(_rank_args(graph, cache_dir, out,
                                   label_mode=True)) == EXIT_OK
        assert f"unusable cache file {artifact}" in caplog.text
        assert "re-parsing" in caplog.text
        assert len(parses) == 1
        assert out.read_bytes() == reference
        assert artifact.read_bytes() == good
        assert cache_layout(cache_dir) == {".gmrk": 2, ".gmrg": 1}

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_artifact_reparsed_and_rewritten(
            self, tmp_path, monkeypatch, caplog, version):
        # versions 1 and 2 held int64 words, and version 1 also the N
        # out-degrees after the sources; the key holds no version, so
        # version 3 replaces either under its name
        graph = _property_graph(tmp_path / "g.edges")
        cache_dir, out = tmp_path / "cache", tmp_path / "o.csv"
        assert main(_rank_args(graph, cache_dir, out, label_mode=True)) == EXIT_OK
        reference = out.read_bytes()
        artifact = next(cache_dir.glob("*.gmrg"))
        good = artifact.read_bytes()
        assert good[4:6] == struct.pack("<H", 3)
        g = cache.read_graph(io.BytesIO(good))
        arrays = [g.in_indptr, g.in_sources]
        if version == 1:
            arrays.append(g.out_degree)
        arrays_end = 40 + 4 * (g.node_count + 1 + g.edge_count)
        artifact.write_bytes(
            good[:4] + struct.pack("<H", version) + good[6:40]
            + np.concatenate(arrays).astype("<i8").tobytes()
            + good[arrays_end:])
        parses = _count_calls(monkeypatch, "load_edge_list")
        with caplog.at_level(logging.WARNING):
            assert main(_rank_args(graph, cache_dir, out,
                                   label_mode=True)) == EXIT_OK
        assert (f"unusable cache file {artifact} (unsupported version "
                f"{version}), re-parsing") in caplog.text
        assert len(parses) == 1
        assert out.read_bytes() == reference
        assert artifact.read_bytes() == good
        assert cache_layout(cache_dir) == {".gmrk": 2, ".gmrg": 1}

    def test_each_parse_mode_gets_its_own_artifact(self, tmp_path, monkeypatch):
        graph = _property_graph(tmp_path / "g.edges")
        cache_dir = tmp_path / "cache"
        modes = [(labels, loops) for labels in (False, True)
                 for loops in (False, True)]
        fresh = {}
        for mode in modes:
            out = tmp_path / "fresh.csv"
            assert main(_rank_args(graph, None, out, *mode)) == EXIT_OK
            fresh[mode] = out.read_bytes()
        parses = _count_calls(monkeypatch, "load_edge_list")
        for i, mode in enumerate(modes):
            out = tmp_path / "cached.csv"
            assert main(_rank_args(graph, cache_dir, out, *mode)) == EXIT_OK
            assert len(parses) == i + 1     # no other mode's graph is served
            assert out.read_bytes() == fresh[mode]
        assert cache_layout(cache_dir) == {".gmrk": 8, ".gmrg": 4}
        for mode in modes:                  # now each mode has its own hit
            out = tmp_path / "warm.csv"
            assert main(_rank_args(graph, cache_dir, out, *mode)) == EXIT_OK
            assert out.read_bytes() == fresh[mode]
        assert len(parses) == len(modes)

    def test_empty_edition_exit_2_cold_and_warm(self, world, tmp_path, caplog):
        root = _copy_world(world, tmp_path)
        (root / "de.edges").write_text("# DE has no links\n", encoding="utf-8")
        args = ["top-people", "--config", str(root / "config.ini"),
                "--edition", "DE"]
        for run in ("cold", "warm"):
            caplog.clear()
            with caplog.at_level(logging.ERROR):
                assert main(args) == EXIT_INPUT, run
            errors = [r.getMessage() for r in caplog.records
                      if r.levelno >= logging.ERROR]
            assert errors == ["edition DE: graph has no labeled nodes"], run
        # the registry loads before any edition is ranked
        assert cache_layout(root / "cache") == {".gmrg": 1, ".gmrp": 1}

    @pytest.mark.parametrize("algorithm", ["pagerank", "2drank"])
    def test_warm_top_people_neither_parses_nor_builds(
            self, world, tmp_path, monkeypatch, algorithm):
        root = _copy_world(world, tmp_path)
        args = ["top-people", "--config", str(root / "config.ini"), "--all",
                "--algorithm", algorithm]
        toplists = root / "out" / "toplists"
        shutil.rmtree(toplists)
        assert main(args) == EXIT_OK
        cold = {p.name: p.read_bytes() for p in toplists.iterdir()}
        shutil.rmtree(toplists)
        monkeypatch.setattr(cli, "load_edge_list", _raise)
        monkeypatch.setattr(DirectedGraph, "from_edges", classmethod(_raise))
        monkeypatch.setattr(cli, "pagerank", _raise)
        monkeypatch.setattr(cli, "cheirank", _raise)
        assert main(args) == EXIT_OK
        assert {p.name: p.read_bytes() for p in toplists.iterdir()} == cold
        assert cold == {f"{code}_{algorithm}.csv":
                        (world / "out" / "toplists" /
                         f"{code}_{algorithm}.csv").read_bytes()
                        for code in PLANT}


class TestWarmRunCountsNoOutDegree:
    """A run that reads every vector from the cache never counts the
    graph's out-degrees."""

    @pytest.mark.parametrize("command", ["top-people", "rank"])
    def test_warm_run_leaves_out_degree_uncounted(self, world, tmp_path,
                                                  monkeypatch, command):
        if command == "top-people":
            root = _copy_world(world, tmp_path)
            out = root / "out" / "toplists"
            shutil.rmtree(out)
            args = ["top-people", "--config", str(root / "config.ini"),
                    "--all", "--algorithm", "2drank"]
        else:
            out = tmp_path / "out"
            out.mkdir()
            args = _rank_args(_property_graph(tmp_path / "g.edges"),
                              tmp_path / "cache", out / "o.csv",
                              label_mode=True)
        assert main(args) == EXIT_OK
        cold = _outputs(out)
        assert cold
        for path in out.iterdir():
            path.unlink()

        def count(graph):
            raise AssertionError("a warm run counts no out-degree")
        monkeypatch.setattr(DirectedGraph, "out_degree", property(count))
        assert main(args) == EXIT_OK
        assert _outputs(out) == cold


def _edit_columns(edit):
    """A corruption that rewrites a registry artifact's decoded columns."""
    def corrupt(raw):
        columns = PersonRegistry(*cache.read_persons(io.BytesIO(raw)),
                                 default_culture_map()).columns()
        edit(*columns)
        buf = io.BytesIO()
        cache.write_persons(buf, *columns)
        return buf.getvalue()
    return corrupt


def _one_string_less(raw):
    """A registry artifact whose last two titles are one string."""
    at = raw.rindex(b"\0")
    return raw[:at] + b"_" + raw[at + 1:]


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


class TestRegistryArtifact:
    @pytest.mark.parametrize("command, algorithm, before", [
        ("global", "pagerank", None), ("global", "2drank", None),
        ("culture", "pagerank", None), ("culture", "pagerank", 19)])
    def test_golden_outputs_cold_and_warm(self, world, tmp_path, monkeypatch,
                                          caplog, command, algorithm, before):
        root = _copy_world(world, tmp_path)
        args = [command, "--config", str(root / "config.ini"),
                "--algorithm", algorithm]
        if command == "global":
            # the reference file's name is part of the overlap report
            ref = root / "reference.txt"
            ref.write_text("Napoleon\nJesus\nSomeone_Else\n")
            args += ["--women", "--reference", str(ref)]
            names = [f"{algorithm}_{name}.csv" for name in GLOBAL_OUTPUTS]
            names.append(f"{algorithm}_overlap_report.json")
        else:
            suffix = "" if before is None else f"_before{before}"
            args += [] if before is None else ["--before-century", str(before)]
            names = [f"{algorithm}_culture_{kind}{suffix}.csv"
                     for kind in ("network", "ranks", "matrix")]
        for run in ("cold", "warm"):
            if run == "warm":
                monkeypatch.setattr(cli, "load_persons", _raise)
            caplog.clear()
            with caplog.at_level(logging.INFO):
                assert main(args) == EXIT_OK, run
            assert ("(registry)" in caplog.text) == (run == "warm")
            for name in names:
                path = root / "out" / name
                if "_culture_ranks" in name:    # see TestCulture
                    assert (rank_columns(path.read_text(encoding="utf-8"))
                            == (GOLDEN / name).read_text(encoding="utf-8"))
                else:
                    assert path.read_bytes() == (GOLDEN / name).read_bytes()
                path.unlink()                   # the warm run writes it anew
        assert cache_layout(root / "cache") == {".gmrp": 1}

    @pytest.mark.parametrize("args", [
        ["global", "--women", "--algorithm", "2drank"],
        ["culture", "--before-century", "19"]], ids=["global", "culture"])
    def test_warm_run_leaves_titles_unsplit(self, world, tmp_path,
                                            monkeypatch, caplog, args):
        root = _copy_world(world, tmp_path)
        args = [*args, "--config", str(root / "config.ini")]
        assert main(args) == EXIT_OK
        reference = _outputs(root / "out")

        def split(column):
            raise AssertionError("global and culture read no title")
        monkeypatch.setattr(registry._TitleColumn, "cells", split)
        with caplog.at_level(logging.INFO):
            assert main(args) == EXIT_OK
        assert "(registry)" in caplog.text
        assert _outputs(root / "out") == reference

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda raw: raw[:-3], "expected"),
        (lambda raw: b"GMRG" + raw[4:], "bad magic"),
        (lambda raw: raw[:4] + (0).to_bytes(2, "little") + raw[6:],
         "unsupported version 0"),
        (_one_string_less, "strings, found"),
        (_edit_columns(lambda ids, fields, editions, titles: fields.__setitem__(
            0, fields[0][:2] + ("other",))), "unknown gender 'other'"),
        (_edit_columns(lambda ids, fields, editions, titles: ids.__setitem__(
            1, ids[0])), "duplicate person_id"),
        (_edit_columns(lambda ids, fields, editions, titles: editions.__setitem__(
            0, "XY")), "unknown edition code 'XY'"),
        (_edit_columns(lambda ids, fields, editions, titles: editions.__setitem__(
            1, editions[0])), "duplicate edition code"),
        (_edit_columns(lambda ids, fields, editions, titles: ids.__setitem__(
            0, "")), "empty person_id"),
        (_edit_columns(lambda ids, fields, editions, titles: fields.__setitem__(
            0, ("",) + fields[0][1:])), "empty birth_country"),
    ], ids=["truncated", "bad-magic", "old-version", "wrong-string-count",
            "unknown-gender", "duplicate-id", "unknown-edition",
            "duplicate-edition", "empty-id", "empty-country"])
    def test_corrupt_artifact_reparsed_and_rewritten(
            self, world, tmp_path, monkeypatch, caplog, corrupt, reason):
        root = _copy_world(world, tmp_path)
        args = ["global", "--config", str(root / "config.ini"), "--women"]
        assert main(args) == EXIT_OK
        reference = _outputs(root / "out")
        artifact = next((root / "cache").glob("*.gmrp"))
        good = artifact.read_bytes()
        artifact.write_bytes(corrupt(good))
        loads = _count_calls(monkeypatch, "load_persons")
        with caplog.at_level(logging.WARNING):
            assert main(args) == EXIT_OK
        assert f"unusable cache file {artifact} (" in caplog.text
        assert reason in caplog.text and "re-parsing" in caplog.text
        assert len(loads) == 1
        assert _outputs(root / "out") == reference
        assert artifact.read_bytes() == good
        assert cache_layout(root / "cache") == {".gmrp": 1}

    @pytest.mark.parametrize("field, value, message", [
        (0, "Ex\0tra", "a field holds a NUL character"),
        (1, "X\0X", "a field holds a NUL character"),
        (5, "Ex\0tra", "a field holds a NUL character"),
        (2, str(2**63), f"birth_year {2**63} does not fit in 64 bits"),
        (2, str(-2**63 - 1),
         f"birth_year {-2**63 - 1} does not fit in 64 bits"),
    ], ids=["nul-in-id", "nul-in-country", "nul-in-title", "year-over-int64",
            "year-under-int64"])
    def test_row_the_cache_cannot_store_exits_2(
            self, world, tmp_path, caplog, field, value,
            message):
        root = _copy_world(world, tmp_path)
        row = ["Extra", "XX", "1800", "male", "Extra", "Extra", "Extra"]
        row[field] = value
        persons = root / "persons.tsv"
        with open(persons, "a", encoding="utf-8") as f:
            f.write("\t".join(row) + "\n")
        line = persons.read_text(encoding="utf-8").count("\n")
        with caplog.at_level(logging.INFO):
            assert main(["global", "--config", str(root / "config.ini"),
                         "--women"]) == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == [f"persons line {line}: {message}"]
        assert list((root / "cache").glob("*.gmrp")) == []

    @pytest.mark.parametrize("valid, invalid, message", [
        ("\t1769\t", "\t17x9\t",
         "persons line 2: birth_year must be an integer, got '17x9'"),
        ("\tKonfuziuz\n", "\tKonfuzius\n",
         "duplicate title 'Konfuzius' in edition DE: 'Confucius' vs 'Extra'"),
    ], ids=["bad-year", "duplicate-title"])
    def test_one_byte_edit_to_invalid_file_exits_2(
            self, world, tmp_path, caplog, valid, invalid,
            message):
        root = _copy_world(world, tmp_path)
        persons = root / "persons.tsv"
        with open(persons, "a", encoding="utf-8") as f:
            f.write("Extra\tXX\t1800\tmale\tExtra\tExtra\tKonfuziuz\n")
        args = ["global", "--config", str(root / "config.ini")]
        assert main(args) == EXIT_OK
        text = persons.read_text(encoding="utf-8")
        assert text.count(valid) == 1
        persons.write_text(text.replace(valid, invalid), encoding="utf-8")
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(args) == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == [message]
        # the artifact of the valid file is still there, under its own key
        assert cache_layout(root / "cache") == {".gmrp": 1}

    def test_duplicate_title_in_artifact_exits_2(self, world, tmp_path,
                                                 caplog):
        root = _copy_world(world, tmp_path)
        args = ["top-people", "--config", str(root / "config.ini"),
                "--edition", "FR"]
        assert main(args) == EXIT_OK
        toplist = root / "out" / "toplists" / "FR_pagerank.csv"
        before = toplist.read_bytes()
        artifact = next((root / "cache").glob("*.gmrp"))

        def same_fr_title(ids, fields, editions, titles):
            width, fr = len(editions), editions.index("FR")
            titles[fr] = titles[width + fr] = "Same"
        artifact.write_bytes(_edit_columns(same_fr_title)(
            artifact.read_bytes()))
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(args) == EXIT_INPUT
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert errors == ["duplicate title 'Same' in edition FR: "
                          "'Napoleon' vs 'Carl_Linnaeus'"]
        assert toplist.read_bytes() == before


def _as_version_1(raw):
    """A v2 vector file rewritten in the v1 layout (no tol, sweeps, residual)."""
    magic, _, tag, alpha, _, _, _, n = struct.unpack_from("<4sHBddQdQ", raw)
    return struct.pack("<4sHBdQ", magic, 1, tag, alpha, n) + raw[47:]


class TestVectorHeader:
    def test_version_1_file_recomputed_and_rewritten(self, tmp_path, caplog):
        graph = _property_graph(tmp_path / "g.edges")
        cache_dir, out = tmp_path / "cache", tmp_path / "o.csv"
        args = ["rank", str(graph), "--cache-dir", str(cache_dir),
                "--out", str(out)]
        assert main(args) == EXIT_OK
        reference = out.read_bytes()
        vector_file = next(cache_dir.glob("*.gmrk"))
        v2 = vector_file.read_bytes()
        v1 = _as_version_1(v2)
        assert v1[4:6] == (1).to_bytes(2, "little")
        vector_file.write_bytes(v1)
        with caplog.at_level(logging.WARNING):
            assert main(args) == EXIT_OK
        assert "unsupported version 1" in caplog.text
        assert out.read_bytes() == reference
        assert vector_file.read_bytes() == v2

    def test_hit_returns_sweeps_and_residual(self, tmp_path, monkeypatch):
        graph = _property_graph(tmp_path / "g.edges")
        config = cli.PipelineConfig(cache_dir=tmp_path / "cache")
        args = (graph, "2drank", config, "string-labels", True, "empty")
        cold = cli._rank_edge_list(*args)[1]
        monkeypatch.setattr(cli, "pagerank", _raise)
        monkeypatch.setattr(cli, "cheirank", _raise)
        warm = cli._rank_edge_list(*args)[1]
        for name in ("pagerank", "cheirank"):
            assert cold[name].iterations_used > 1
            assert warm[name].iterations_used == cold[name].iterations_used
            assert warm[name].residual == cold[name].residual
            assert 0 < warm[name].residual <= config.tol

    def test_header_of_other_alpha_not_served(self, tmp_path, caplog):
        graph = _property_graph(tmp_path / "g.edges")
        cache_dir, out = tmp_path / "cache", tmp_path / "o.csv"
        args = ["rank", str(graph), "--cache-dir", str(cache_dir),
                "--out", str(out)]
        assert main(args) == EXIT_OK
        vector_file = next(cache_dir.glob("*.gmrk"))
        good = vector_file.read_bytes()
        # the alpha field of a file found under the 0.85 key reads 0.5
        vector_file.write_bytes(good[:7] + struct.pack("<d", 0.5) + good[15:])
        with caplog.at_level(logging.WARNING):
            assert main(args) == EXIT_OK
        assert "does not match" in caplog.text
        assert vector_file.read_bytes() == good


    def test_probabilities_not_a_distribution_recomputed(
            self, tmp_path, caplog):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 0\n0 2\n")
        cache_dir, out = tmp_path / "cache", tmp_path / "a.csv"
        args = ["rank", str(graph), "--out", str(out)]
        assert main(args) == EXIT_OK
        fresh = out.read_bytes()
        args += ["--cache-dir", str(cache_dir)]
        assert main(args) == EXIT_OK
        vector_file = next(cache_dir.glob("*.gmrk"))
        good = vector_file.read_bytes()
        vector_file.write_bytes(good[:47] + struct.pack("<dd", np.nan, -0.5)
                                + good[63:])
        with caplog.at_level(logging.INFO):
            assert main(args) == EXIT_OK
        assert (f"unusable cache file {vector_file} (probabilities are not a "
                "positive distribution), recomputing") in caplog.text
        assert "(pagerank)" not in caplog.text          # no vector hit
        assert out.read_bytes() == fresh
        assert vector_file.read_bytes() == good

    def test_vector_of_more_sweeps_than_max_iter_not_served(
            self, tmp_path, caplog):
        # a fresh run with --max-iter 3 fails, so a warm one must fail too
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 0\n0 2\n2 3\n3 1\n")
        cache_dir, out = tmp_path / "cache", tmp_path / "o.csv"
        args = ["rank", str(graph), "--cache-dir", str(cache_dir),
                "--out", str(out)]
        assert main(args) == EXIT_OK
        reference = out.read_bytes()
        vector_file = next(cache_dir.glob("*.gmrk"))
        good = vector_file.read_bytes()
        sweeps = cache.read_vector(io.BytesIO(good), "pagerank", 4,
                                   GoogleParams()).iterations_used
        assert sweeps > 3
        capped = tmp_path / "capped.csv"
        with caplog.at_level(logging.WARNING):
            assert main(["rank", str(graph), "--cache-dir", str(cache_dir),
                         "--out", str(capped), "--max-iter", "3"]) == EXIT_NUMERIC
        assert (f"unusable cache file {vector_file} (took {sweeps} sweeps, "
                "over max_iter 3), recomputing") in caplog.text
        assert "corrupt" not in caplog.text
        assert "no convergence after 3 iterations" in caplog.text
        assert not capped.exists()
        assert vector_file.read_bytes() == good
        out.unlink()
        caplog.clear()
        with caplog.at_level(logging.INFO):
            assert main(args) == EXIT_OK
        assert "(pagerank)" in caplog.text              # a vector hit
        assert out.read_bytes() == reference


class TestFailedArtifactWrite:
    def test_writer_failing_mid_file_leaves_nothing(self, tmp_path,
                                                    monkeypatch, caplog):
        graph = _property_graph(tmp_path / "g.edges")
        clean, cache_dir = tmp_path / "clean", tmp_path / "cache"
        out = tmp_path / "o.csv"

        def args(directory):
            return ["rank", str(graph), "--cache-dir", str(directory),
                    "--out", str(out)]
        assert main(args(clean)) == EXIT_OK
        reference = out.read_bytes()
        out.unlink()
        write_graph = cache.write_graph

        def failing(stream, g):
            stream.write(b"GMRG\x01\x00")
            raise OSError("no space left on device")
        monkeypatch.setattr(cache, "write_graph", failing)
        with caplog.at_level(logging.ERROR):
            assert main(args(cache_dir)) == EXIT_INPUT
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.ERROR] == ["no space left on device"]
        assert list(cache_dir.iterdir()) == []  # no .gmrg, no temp file
        assert not out.exists()
        monkeypatch.setattr(cache, "write_graph", write_graph)
        assert main(args(cache_dir)) == EXIT_OK
        assert out.read_bytes() == reference
        assert ({p.name: p.read_bytes() for p in cache_dir.iterdir()}
                == {p.name: p.read_bytes() for p in clean.iterdir()})


def _count_hashes(monkeypatch):
    paths = []
    content_hash = cache.content_hash

    def counting(path):
        paths.append(str(path))
        return content_hash(path)
    monkeypatch.setattr(cache, "content_hash", counting)
    return paths


class TestHashOnce:
    def test_rank_2drank_hashes_once(self, tmp_path, monkeypatch):
        graph = _property_graph(tmp_path / "g.edges")
        hashed = _count_hashes(monkeypatch)
        assert main(["rank", str(graph), "--algorithm", "2drank",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        assert hashed == [str(graph)]

    def test_top_people_2drank_hashes_each_edition_once(self, world, tmp_path,
                                                        monkeypatch):
        hashed = _count_hashes(monkeypatch)
        assert main(["top-people", "--config", str(world / "config.ini"),
                     "--all", "--algorithm", "2drank",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        assert sorted(hashed) == sorted(
            [str(world / "persons.tsv")]
            + [str(world / f"{code.lower()}.edges") for code in PLANT])


class TestArtifactNames:
    def test_commands_name_artifacts_as_earlier_releases(
            self, world, tmp_path, monkeypatch):
        """Each command keys its artifacts by the inputs of the pinned names
        in tests/test_cache.py, in their order, so an earlier cache stays
        warm."""
        monkeypatch.setattr(cache, "content_hash", lambda path: "abc")
        root = _copy_world(world, tmp_path)
        assert main(["rank", str(root / "fr.edges"), "--labels",
                     "--algorithm", "cheirank", "--cache-dir",
                     str(root / "cache"), "--out", str(tmp_path / "o.csv")
                     ]) == EXIT_OK
        assert main(["global", "--config", str(root / "config.ini")]) == EXIT_OK
        assert sorted(p.name for p in (root / "cache").iterdir()) == [
            "428d32fc93ab463d358c1c7fa4af7cb7.gmrk",
            "59c070028d19b099246a7f79f62f403b.gmrg",
            "969e9f72415a5fb64143f69d23d7c366.gmrp",
        ]


class TestConfig:
    def test_alpha_one_rejected_at_validation(self, world):
        assert main(["culture", "--config", str(world / "config.ini"),
                     "--alpha", "1.0"]) == EXIT_INPUT

    def test_config_alpha_one_rejected_by_global(self, world, tmp_path,
                                                 caplog):
        # global reads no flag for alpha, but validates the shared config
        config = _copy_world(world, tmp_path) / "config.ini"
        config.write_text(config.read_text(encoding="utf-8").replace(
            "alpha = 0.85", "alpha = 1.0"), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            assert main(["global", "--config", str(config)]) == EXIT_INPUT
        assert "alpha" in caplog.text

    def test_config_tol_nan_rejected(self, world, tmp_path, caplog):
        config = _copy_world(world, tmp_path) / "config.ini"
        config.write_text(config.read_text(encoding="utf-8").replace(
            "tol = 1e-10", "tol = nan"), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            assert main(["culture", "--config", str(config)]) == EXIT_INPUT
        assert "tol must be positive and finite" in caplog.text

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)

    def test_duplicate_edition_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[editions]\nEN = a\nEN = b\n")
        with pytest.raises(ConfigError,
                           match="config line 3: duplicate edition EN"):
            load_config(bad)

    def test_relative_paths_resolve_against_config(self, world):
        config = load_config(world / "config.ini")
        assert config.persons_path == world / "persons.tsv"
        assert config.editions["EN"] == world / "en.edges"


class TestSelfcheckCommand:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_console_entry_point(self):
        # the child imports the gmrank under test, also when only pytest's
        # ``pythonpath`` setting put it on sys.path
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-m", "gmrank.cli", "selfcheck"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "PASS" in result.stdout


def test_global_and_culture_compute_each_fact_once(world, monkeypatch):
    # one global ranking per ``global`` run, one forward culture Google
    # matrix per ``culture`` run
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counting(aggregate, "global_ranking")
    counting(cultures, "culture_google_matrix")
    config = str(world / "config.ini")
    assert main(["global", "--config", config]) == EXIT_OK
    assert main(["culture", "--config", config]) == EXIT_OK
    assert calls == {"global_ranking": 1, "culture_google_matrix": 1}


def _heavy_modules_after(code, argv=()):
    """Which of scipy and concurrent.futures a fresh interpreter holds after
    running ``code``: this test session has loaded both already."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps([name for name in"
              " ('scipy', 'concurrent.futures') if name in sys.modules]))")
    src = str(Path(cli.__file__).parents[1])
    env = {name: value for name, value in os.environ.items()
           if name != cli.CACHE_ENV}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


RUN_MAIN = "from gmrank import cli\nassert cli.main(sys.argv[1:]) == 0"


class TestStartupLoadsNoScipy:
    """Only a command that builds a sparse matrix loads scipy, and only a
    sweep split into row blocks loads the thread pool."""

    @pytest.mark.parametrize("module", ["gmrank", "gmrank.cli"])
    def test_import(self, module):
        assert _heavy_modules_after(f"import {module}") == []

    @pytest.mark.parametrize("argv", [["global", "--women"], ["culture"]],
                             ids=["global", "culture"])
    def test_aggregation_commands(self, world, tmp_path, argv):
        root = _copy_world(world, tmp_path)
        argv = [*argv, "--config", str(root / "config.ini")]
        assert _heavy_modules_after(RUN_MAIN, argv) == []

    def test_warm_top_people(self, world, tmp_path):
        root = _copy_world(world, tmp_path)
        argv = ["top-people", "--config", str(root / "config.ini"), "--all",
                "--algorithm", "2drank"]
        assert main(argv) == EXIT_OK
        assert _heavy_modules_after(RUN_MAIN, argv) == []

    def test_cold_rank_loads_scipy_and_warm_rank_does_not(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n")
        argv = _rank_args(graph, tmp_path / "cache", tmp_path / "o.csv")
        # scipy loads concurrent.futures itself
        assert "scipy" in _heavy_modules_after(RUN_MAIN, argv)
        cold = (tmp_path / "o.csv").read_bytes()
        assert _heavy_modules_after(RUN_MAIN, argv) == []
        assert (tmp_path / "o.csv").read_bytes() == cold
