"""Tests of the benchmark itself: tiny runs, and checks that catch broken outputs.

Run from the repository root::

    python3 -m pytest benchmarks/test_benchmark.py -q
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = ["--seconds", "0.2", "--scale", "0.05"]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- whole runs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_has_no_failed_operation(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--trace", "0", *TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_accounts_for_wall_time(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--trace", "1", *TINY))
    assert result["failed"] == 0
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert layers["cli.self_s"] >= 0
    own = sum(v for k, v in layers.items()
              if run.PER_LAYER[k] == "s" and not k.startswith("trace."))
    assert own == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    if workload == "corpus-warm":
        assert layers["rank.pagerank_s"] == layers["rank.cheirank_s"] == 0
        assert layers["cache.hit_ratio"] == 1.0
    if workload in ("rank-slowmix", "toplists-aggregate"):
        assert layers["graph.parse_calls"] == 0
    if workload == "rank-slowmix":
        # trapped 2-cycles make |lambda_2| = alpha: far above a uniform graph's ~19
        assert layers["rank.pagerank_sweeps"] > 60


def test_outside_a_checkout_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "corpus-cold", "--seed", "1", "--trace", "0", *TINY,
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- inputs ------------------------------------------------------------------------

def test_same_seed_writes_same_inputs(tmp_path):
    def digest(root: Path) -> str:
        h = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                h.update(path.relative_to(root).as_posix().encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    for k in (0, 1):
        inputs.generate("corpus-cold", tmp_path / str(k), seed=9, scale=0.05)
    inputs.generate("corpus-cold", tmp_path / "other", seed=10, scale=0.05)
    assert digest(tmp_path / "0") == digest(tmp_path / "1") != digest(tmp_path / "other")


def test_country_table_agrees_with_shipped_culture_map():
    from gmrank import default_culture_map
    culture_map = default_culture_map()
    for culture, countries in inputs.COUNTRIES.items():
        for country in countries:
            assert culture_map.culture_of(country) == culture, country


# -- correctness checks catch perturbed outputs -------------------------------------

@pytest.fixture(scope="module")
def library_outputs():
    import gmrank
    src, tgt, _, shape = inputs.slowmix_graph(4, inputs.Sizes().scaled(0.02))
    g = gmrank.DirectedGraph.from_edges(shape.nodes, src, tgt)
    p, c = gmrank.pagerank(g), gmrank.cheirank(g)
    kp, kc = gmrank.rank_indices(p), gmrank.rank_indices(c)
    twod = gmrank.two_d_rank(kp, kc)
    arrays = {"build_0": g.in_indptr, "build_1": g.in_sources, "build_2": g.out_degree,
              "pagerank_0": p.probabilities, "cheirank_0": c.probabilities,
              "order_0": kp.ordering, "order_1": kc.ordering,
              "two_d_rank_0": twod.ordering, "two_d_rank_1": twod.kprime}
    return arrays, src, tgt, shape.nodes


def test_library_check_passes_true_outputs(library_outputs):
    assert checks.check_library(*library_outputs) == {}


def _perturbed(library_outputs, name, change):
    arrays, src, tgt, n = library_outputs
    bad = dict(arrays)
    bad[name] = change(arrays[name].copy())
    return checks.check_library(bad, src, tgt, n)


def _move_mass(p):
    p[0] += 1e-6
    p[1] -= 1e-6
    return p


def _swap(a, i=0):
    a[[i, i + 1]] = a[[i + 1, i]]
    return a


@pytest.mark.parametrize("name, change, stage", [
    ("pagerank_0", _move_mass, "pagerank"),
    ("cheirank_0", _move_mass, "cheirank"),
    ("pagerank_0", lambda p: p * (1 + 1e-9), "pagerank"),
    ("cheirank_0", lambda p: np.full_like(p, 1.0 / p.size), "cheirank"),
    ("build_1", lambda s: (s + 1) % s.size, "build"),
    ("order_0", _swap, "order"),
    ("two_d_rank_0", _swap, "two_d_rank"),
    ("two_d_rank_1", lambda k: k + 1, "two_d_rank"),
])
def test_library_check_catches_perturbation(library_outputs, name, change, stage):
    assert stage in _perturbed(library_outputs, name, change)


@pytest.fixture(scope="module")
def aggregate_outputs(tmp_path_factory):
    """A tiny toplists-aggregate run of the real CLI: inputs plus its outputs."""
    from gmrank import cli
    root = tmp_path_factory.mktemp("aggregate")
    inputs.generate("toplists-aggregate", root, seed=6, scale=0.05)
    ops = workloads.cli_ops("toplists-aggregate", root, root / "out", root / "cache")
    for op in ops:
        assert cli.main(list(op.argv)) == 0
    return root, ops


def _copy_outputs(aggregate_outputs, tmp_path) -> Path:
    root, _ = aggregate_outputs
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    return out


def test_aggregate_check_passes_true_outputs(aggregate_outputs):
    root, ops = aggregate_outputs
    assert checks.check_aggregate(root / "out", root, ops) == {}


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = edit(cells[header.index(column)])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("file, row, column, edit, op", [
    ("pagerank_global_ranking.csv", 3, "theta", lambda v: str(int(v) + 1), "global:pagerank"),
    ("2drank_global_ranking.csv", 1, "person_id", lambda v: "Person_999999", "global:2drank"),
    ("pagerank_global_ranking_female.csv", 2, "person_id", lambda v: "x", "global:pagerank"),
    ("pagerank_culture_network.csv", 1, "weight", lambda v: str(int(v) + 1), "culture:pagerank"),
    ("2drank_culture_network_before19.csv", 2, "to", lambda v: "WR" if v != "WR" else "EN",
     "culture:2drank_before19"),
    ("pagerank_culture_ranks.csv", 1, "kprime", lambda v: str(int(v) + 30), "culture:pagerank"),
])
def test_aggregate_check_catches_perturbation(aggregate_outputs, tmp_path, file, row,
                                              column, edit, op):
    root, ops = aggregate_outputs
    out = _copy_outputs(aggregate_outputs, tmp_path)
    _edit_csv(out / file, row, column, edit)
    assert op in checks.check_aggregate(out, root, ops)


def test_changed_output_file_fails_its_operation(aggregate_outputs, tmp_path):
    """corpus-warm's check: each output must match the cold reference bytes."""
    import worker
    root, ops = aggregate_outputs
    out = _copy_outputs(aggregate_outputs, tmp_path)

    def iteration():
        return {"ops": [{"name": op.name, "status": "ok",
                         "digest": worker.output_digest(out, op.outputs)} for op in ops]}

    reference = iteration()
    with open(out / ops[0].outputs[-1], "a", encoding="utf-8") as f:
        f.write("\n")
    tally = run.Tally()
    tally.judge([reference, iteration()], run._digests(reference), {})
    assert (tally.attempted, tally.failed) == (2 * len(ops), 1)
    assert list(tally.problems) == [ops[0].name]
