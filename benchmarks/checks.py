"""Correctness checks on what a workload produced, from the benchmark's own oracles.

Each check returns a list of problems (empty when the output is correct);
``run.py`` charges a problem to the operation that wrote the output, so it
counts in the error rate instead of stopping the run.  The oracles use only
the generated inputs, numpy and scipy, never gmrank.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import sparse

from inputs import COUNTRIES, WORLD, century_of
from workloads import ALPHA, EDITIONS

CULTURE_OF = {cc: lc for lc, countries in COUNTRIES.items() for cc in countries}

RESIDUAL_LIMIT = 1e-8      # 100x the pipeline's successive-iterate tolerance
SUM_LIMIT = 1e-12


# -- library graph: rank-slowmix ---------------------------------------------

def _google_residual(p: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                     n: int, alpha: float) -> float:
    """||G p - p||_1 for the Google matrix of the distinct edges src -> tgt."""
    out_degree = np.bincount(src, minlength=n)
    transition = sparse.csr_matrix(
        (1.0 / out_degree[src], (tgt, src)), shape=(n, n))
    dangling_mass = p[out_degree == 0].sum()
    gp = alpha * (transition @ p) + (alpha * dangling_mass + (1.0 - alpha) * p.sum()) / n
    return float(np.abs(gp - p).sum())


def _vector_problems(name: str, p: np.ndarray, src, tgt, n: int,
                     alpha: float) -> list[str]:
    problems = []
    if p.shape != (n,):
        return [f"{name}: {p.shape} entries for {n} nodes"]
    residual = _google_residual(p, src, tgt, n, alpha)
    if not residual <= RESIDUAL_LIMIT:
        problems.append(f"{name}: fixed-point residual {residual:.3e} > {RESIDUAL_LIMIT:.0e}")
    total = float(p.sum())
    if not abs(total - 1.0) <= SUM_LIMIT:
        problems.append(f"{name}: sums to {total!r}")
    floor = (1.0 - alpha) / n
    if not float(p.min()) >= floor * (1.0 - 1e-9):
        problems.append(f"{name}: entry {float(p.min()):.3e} under floor {floor:.3e}")
    return problems


def _descending(p: np.ndarray) -> np.ndarray:
    """Documented rank order: descending probability, ties by ascending id."""
    return np.lexsort((np.arange(p.size), -p))


def _positions(ordering: np.ndarray) -> np.ndarray:
    position = np.empty(ordering.size, dtype=np.int64)
    position[ordering] = np.arange(1, ordering.size + 1)
    return position


def _lexicographically_increasing(keys: list[np.ndarray]) -> bool:
    """True when the rows (keys[0][i], keys[1][i], ...) strictly increase with i."""
    decided = np.zeros(keys[0].size - 1, dtype=bool)
    for key in keys:
        step = np.diff(key)
        if np.any(step[~decided] < 0):
            return False
        decided |= step > 0
    return bool(decided.all())


def check_library(arrays, src: np.ndarray, tgt: np.ndarray, n: int,
                  alpha: float = ALPHA) -> dict[str, list[str]]:
    """Problems per library stage, against the benchmark's own dedup of src/tgt.

    ``arrays`` maps the names the worker saves (``build_0``, ``pagerank_0``,
    ...) to arrays; a missing name is a missing result.
    """
    problems: dict[str, list[str]] = {}

    def have(*names):
        return all(name in arrays for name in names)

    key = np.unique(tgt * n + src)          # sorted by target, then source
    d_tgt, d_src = key // n, key % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(d_tgt, minlength=n), out=indptr[1:])
    if not have("build_0", "build_1", "build_2"):
        problems["build"] = ["no graph"]
    elif not (np.array_equal(arrays["build_0"], indptr)
              and np.array_equal(arrays["build_1"], d_src)
              and np.array_equal(arrays["build_2"], np.bincount(d_src, minlength=n))):
        problems["build"] = ["CSR arrays differ from the distinct edge set"]

    vectors = {}
    for stage, (s, t) in (("pagerank", (d_src, d_tgt)), ("cheirank", (d_tgt, d_src))):
        if not have(f"{stage}_0"):
            problems[stage] = ["no vector"]
            continue
        vectors[stage] = arrays[f"{stage}_0"]
        found = _vector_problems(stage, vectors[stage], s, t, n, alpha)
        if found:
            problems[stage] = found

    if not have("order_0", "order_1") or len(vectors) < 2:
        problems["order"] = ["no rank indices"]
    elif not (np.array_equal(arrays["order_0"], _descending(vectors["pagerank"]))
              and np.array_equal(arrays["order_1"], _descending(vectors["cheirank"]))):
        problems["order"] = ["rank order breaks the descending, ascending-id rule"]

    if not have("two_d_rank_0", "two_d_rank_1", "order_0", "order_1"):
        problems["two_d_rank"] = ["no 2DRank ordering"]
    else:
        ordering = arrays["two_d_rank_0"]
        k, kstar = _positions(arrays["order_0"]), _positions(arrays["order_1"])
        kprime = np.maximum(k, kstar)
        if not np.array_equal(np.sort(ordering), np.arange(n)):
            problems["two_d_rank"] = ["ordering is not a permutation of the nodes"]
        elif not np.array_equal(arrays["two_d_rank_1"], kprime):
            problems["two_d_rank"] = ["K' differs from max(K, K*)"]
        elif not _lexicographically_increasing(
                [kprime[ordering], kstar[ordering], k[ordering], ordering]):
            problems["two_d_rank"] = ["ordering breaks the K', K*, K, id tie rule"]
    return problems


# -- CLI outputs: global ranking and culture network --------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def read_toplists(out: Path, algorithm: str) -> dict[str, list[str]]:
    """Edition -> person ids in rank order, from the top-list CSVs."""
    lists = {}
    for code in EDITIONS:
        rows = _rows(out / "toplists" / f"{code}_{algorithm}.csv")
        if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{code}_{algorithm}.csv: ranks are not 1..n")
        lists[code] = [r["person_id"] for r in rows]
    return lists


def read_persons(path: Path) -> dict[str, tuple[str, int | None, str]]:
    """person_id -> (culture, birth year, gender), cultures from the benchmark's table."""
    persons = {}
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f, delimiter="\t"):
            year = int(row["birth_year"]) if row["birth_year"] else None
            persons[row["person_id"]] = (CULTURE_OF[row["birth_country"]], year,
                                         row["gender"])
    return persons


def expected_global(lists: dict[str, list[str]]) -> list[tuple[str, int, int, float]]:
    """Brute-force theta: (person, theta, appearances, mean rank), ranked."""
    ranks: dict[str, list[int]] = {}
    for ids in lists.values():
        for rank, person in enumerate(ids, start=1):
            ranks.setdefault(person, []).append(rank)
    rows = [(p, sum(101 - r for r in rs), len(rs), sum(rs) / len(rs))
            for p, rs in ranks.items()]
    rows.sort(key=lambda e: (-e[1], -e[2], e[3], e[0]))
    return rows


def check_global(out: Path, algorithm: str, persons: dict,
                 reference: Path) -> list[str]:
    try:
        lists = read_toplists(out, algorithm)
        ranking = _rows(out / f"{algorithm}_global_ranking.csv")
        female = _rows(out / f"{algorithm}_global_ranking_female.csv")
        report = json.loads((out / f"{algorithm}_overlap_report.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    expected = expected_global(lists)
    got = [(r["person_id"], int(r["theta"]), int(r["n_appear"]), float(r["mean_rank"]))
           for r in ranking]
    problems = []
    if [int(r["rank"]) for r in ranking] != list(range(1, len(ranking) + 1)):
        problems.append("global ranking positions are not 1..n")
    if got != expected:
        wrong = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                     min(len(got), len(expected)))
        problems.append(f"theta ranking differs from brute force at position {wrong + 1}")
    women = [e[0] for e in expected if persons[e[0]][2] == "female"]
    if [r["person_id"] for r in female] != women:
        problems.append("female ranking is not the female subsequence")
    names = {line.strip() for line in reference.read_text(encoding="utf-8").splitlines()
             if line.strip()}
    overlap = len(names & {e[0] for e in expected[:100]})
    if report.get("overlap") != overlap:
        problems.append(f"overlap {report.get('overlap')} != {overlap}")
    return problems


def check_culture(out: Path, algorithm: str, before: int | None,
                  persons: dict) -> list[str]:
    """Link weights against a direct tally, and weights + own counts = list sizes."""
    suffix = f"_before{before}" if before is not None else ""
    try:
        lists = read_toplists(out, algorithm)
        links = _rows(out / f"{algorithm}_culture_network{suffix}.csv")
        ranks = _rows(out / f"{algorithm}_culture_ranks{suffix}.csv")
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    weights = {(r["from"], r["to"]): int(r["weight"]) for r in links}
    problems = []
    for code, ids in lists.items():
        kept = [persons[p] for p in ids
                if before is None
                or (persons[p][1] is not None and century_of(persons[p][1]) < before)]
        own = sum(1 for culture, _, _ in kept if culture == code)
        tally: dict[str, int] = {}
        for culture, _, _ in kept:
            if culture != code:
                tally[culture] = tally.get(culture, 0) + 1
        written = {to: w for (frm, to), w in weights.items() if frm == code}
        if sum(written.values()) + own != len(kept):
            problems.append(f"{code}: link weights {sum(written.values())} + own {own} "
                            f"!= list size {len(kept)}")
        elif written != tally:
            problems.append(f"{code}: link weights differ from a direct tally")
    if any(frm not in lists for frm, _ in weights):
        problems.append("links leave a culture that has no edition")
    n_cultures = len(EDITIONS) + 1
    for column in ("k", "kstar"):
        if sorted(int(r[column]) for r in ranks) != list(range(1, n_cultures + 1)):
            problems.append(f"culture {column} is not a permutation of 1..{n_cultures}")
    if any(int(r["kprime"]) != max(int(r["k"]), int(r["kstar"])) for r in ranks):
        problems.append("culture K' != max(K, K*)")
    if sorted(r["culture"] for r in ranks) != sorted(EDITIONS + (WORLD,)):
        problems.append("culture ranks do not cover the 25 cultures")
    return problems


def check_aggregate(out: Path, inputs: Path, ops) -> dict[str, list[str]]:
    """Problems per ``global``/``culture`` operation of a CLI workload."""
    persons = read_persons(inputs / "persons.tsv")
    problems = {}
    for op in ops:
        if op.command == "global":
            found = check_global(out, op.algorithm, persons, inputs / "reference.txt")
        elif op.command == "culture":
            found = check_culture(out, op.algorithm, op.before, persons)
        else:
            continue
        if found:
            problems[op.name] = found
    return problems
