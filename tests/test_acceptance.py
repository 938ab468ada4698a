"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 1-10 run on synthetic inputs; criterion 11 needs the real edition
networks and is skipped unless GMRANK_REAL_DATA points at the data directory
(see README for the expected layout).
"""
import dataclasses
import os
import time
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from gmrank.aggregate import (column_normalize, global_ranking,
                              language_representation, load_reference_list,
                              locality_ratio, overlap, spatial_distribution)
from gmrank.cultures import CULTURE_INDEX, build_culture_network, culture_ranks
from gmrank.graph import DirectedGraph, load_edge_list, reverse
from gmrank.rank import (GoogleParams, RankIndex, cheirank,
                         dense_google_matrix, dense_stationary, pagerank,
                         rank_indices, two_d_rank)
from gmrank.registry import (EDITION_CODES, TopList, century_of, load_persons,
                             select_top_people)
from gmrank.tableio import read_toplist_csv, write_toplist_csv

from conftest import make_registry, planted_toplists, random_graph, \
    synthetic_person_rows

ALPHA = 0.85


def oracle_graphs(count=50, n=200, density=0.02, seed=24):
    """Random digraphs with a forced dangling tail, as fixed by criterion 1."""
    rng = np.random.default_rng(seed)
    return [random_graph(rng, n, density, dangling_tail=rng.integers(5, 30))
            for _ in range(count)]


def small_fixtures():
    rng = np.random.default_rng(1045)
    return [
        DirectedGraph.from_edges(2, [0], [1]),                    # closed form
        DirectedGraph.from_edges(1, [], []),                      # lone node
        DirectedGraph.from_edges(6, range(6), [(i + 1) % 6 for i in range(6)]),
        DirectedGraph.from_edges(4, [0, 0, 0], [1, 2, 3]),        # star
        random_graph(rng, 50, 0.05, dangling_tail=7),
        random_graph(rng, 120, 0.02, dangling_tail=15),
    ]


def index_from(positions):
    pos = np.asarray(positions, dtype=np.int64)
    return RankIndex(ordering=np.argsort(pos, kind="stable"), position=pos)


def test_criterion_01_oracle_equivalence():
    graphs = oracle_graphs()
    started = time.perf_counter()
    worst = 0.0
    for g in graphs:
        sparse_p = pagerank(g, GoogleParams()).probabilities
        dense_p = dense_stationary(dense_google_matrix(g, ALPHA)).probabilities
        worst = max(worst, float(np.abs(sparse_p - dense_p).sum()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8, f"sparse/dense L1 gap {worst:.3e}"
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 50 graphs, worst L1 {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_duality_bitwise():
    for g in small_fixtures() + oracle_graphs(count=5):
        chei = cheirank(g, GoogleParams())
        mirror = pagerank(reverse(g), GoogleParams())
        assert np.array_equal(chei.probabilities, mirror.probabilities)
    print("ACCEPTANCE 2 PASS: cheirank == pagerank(reverse) bit-for-bit")


def test_criterion_03_stochasticity_and_floor():
    worst_col = 0.0
    worst_floor = np.inf
    for g in small_fixtures() + oracle_graphs(count=5):
        matrix = dense_google_matrix(g, ALPHA)
        worst_col = max(worst_col, float(np.abs(matrix.sum(axis=0) - 1.0).max()))
        p = pagerank(g, GoogleParams()).probabilities
        worst_floor = min(worst_floor,
                          float(p.min() - (1 - ALPHA) / g.node_count))
    assert worst_col <= 1e-12, f"column sum off by {worst_col:.3e}"
    assert worst_floor >= -1e-12, f"floor violated by {worst_floor:.3e}"
    print(f"ACCEPTANCE 3 PASS: col-sum err {worst_col:.1e}, "
          f"floor margin {worst_floor:.1e}")


def test_criterion_04_closed_form_two_node():
    g = DirectedGraph.from_edges(2, [0], [1])
    # independent oracle: dense linear solve of P = GP with sum(P) = 1
    matrix = dense_google_matrix(g, ALPHA)
    system = matrix - np.eye(2)
    system[-1, :] = 1.0
    solved = np.linalg.solve(system, np.array([0.0, 1.0]))
    assert np.allclose(solved, [0.3508772, 0.6491228], atol=1e-6)
    got = pagerank(g, GoogleParams()).probabilities
    assert got[0] == pytest.approx(0.3508772, abs=1e-6)
    assert got[1] == pytest.approx(0.6491228, abs=1e-6)
    assert np.abs(got - solved).max() <= 1e-8
    print("ACCEPTANCE 4 PASS: P = (0.3508772, 0.6491228) within 1e-6")


def test_criterion_05_two_d_rank_exhaustive_oracle():
    checked = 0
    for n in (1, 2, 3, 4):
        for k in permutations(range(1, n + 1)):
            for kstar in permutations(range(1, n + 1)):
                result = two_d_rank(index_from(k), index_from(kstar))
                kprime = [max(a, b) for a, b in zip(k, kstar)]
                assert result.kprime.tolist() == kprime
                brute = sorted(range(n),
                               key=lambda i: (kprime[i], kstar[i], k[i], i))
                assert result.ordering.tolist() == brute
                checked += 1
    rng = np.random.default_rng(2010)
    for _ in range(10_000):
        k = rng.permutation(6) + 1
        kstar = rng.permutation(6) + 1
        result = two_d_rank(index_from(k), index_from(kstar))
        kprime = np.maximum(k, kstar)
        assert np.array_equal(result.kprime, kprime)
        brute = sorted(range(6), key=lambda i: (kprime[i], kstar[i], k[i], i))
        assert result.ordering.tolist() == brute
        checked += 1
    print(f"ACCEPTANCE 5 PASS: {checked} permutation pairs match brute force")


def test_criterion_06_theta_brute_force():
    rows = synthetic_person_rows(40)
    toplists = planted_toplists(rows)
    # independent direct evaluation of the score over the planted ranks
    tally = {}
    for toplist in toplists:
        for pid, rank in toplist.entries:
            tally.setdefault(pid, []).append(rank)
    expected = sorted(
        ((pid, sum(101 - r for r in ranks), len(ranks), sum(ranks) / len(ranks))
         for pid, ranks in tally.items()),
        key=lambda row: (-row[1], -row[2], row[3], row[0]))
    got = global_ranking(toplists)
    assert [(e.person_id, e.theta, e.n_appear, e.mean_rank) for e in got] \
        == expected
    for entry in got:
        assert entry.n_appear <= entry.theta <= 100 * entry.n_appear
    print(f"ACCEPTANCE 6 PASS: {len(got)} persons match direct evaluation")


def test_criterion_07_distribution_conservation():
    rows = synthetic_person_rows(40)
    registry = make_registry(rows)
    toplists = planted_toplists(rows)

    spatial = spatial_distribution(toplists, registry)
    for toplist in toplists:
        assert sum(v for (row, _), v in spatial.cells.items()
                   if row == toplist.edition) == len(toplist)
    normalized = column_normalize(spatial)
    for col in normalized.col_keys:
        assert sum(v for (_, c), v in normalized.cells.items()
                   if c == col) == pytest.approx(1.0, abs=1e-12)

    ratios = locality_ratio(toplists, registry)
    for value in ratios.cells.values():
        if value is not None:
            assert 0.0 <= value <= 1.0

    # planted fixture mirroring the worked 19-of-21 example
    worked_rows = (
        [{"person_id": f"en{i}", "birth_country": "US" if i % 2 else "UK",
          "birth_year": 1905 + i, "gender": "male"} for i in range(19)]
        + [{"person_id": "pope_pl", "birth_country": "PL", "birth_year": 1920,
            "gender": "male"},
           {"person_id": "pope_de", "birth_country": "DE", "birth_year": 1927,
            "gender": "male"}])
    worked_registry = make_registry(worked_rows, editions=("EN",))
    worked_list = TopList(
        edition="EN", algorithm="pagerank",
        entries=tuple((r["person_id"], i + 1) for i, r in enumerate(worked_rows)))
    worked = locality_ratio([worked_list], worked_registry)
    assert worked.value("EN", 20) == pytest.approx(19 / 21)
    print("ACCEPTANCE 7 PASS: conservation holds; r(EN,20) = 19/21 reproduced")


def test_criterion_08_culture_network_conservation():
    rows = synthetic_person_rows(40)
    registry = make_registry(rows)
    toplists = planted_toplists(rows)
    for before in (None, 16, 19, 20):
        net = build_culture_network(toplists, registry, before_century=before)
        assert np.all(np.diag(net.weights) == 0)
        for toplist in toplists:
            a = CULTURE_INDEX[toplist.edition]
            filtered = own = 0
            for pid, _ in toplist.entries:
                person = registry.get(pid)
                year = person.birth_year
                if before is not None and (year is None
                                           or century_of(year) >= before):
                    continue
                filtered += 1
                own += person.culture == toplist.edition
            assert int(net.weights[a].sum()) + own == filtered
    net = build_culture_network(toplists, registry)
    base = culture_ranks(net)
    scaled = culture_ranks(dataclasses.replace(net, weights=net.weights * 7))
    assert base.k.tolist() == scaled.k.tolist()
    assert base.kstar.tolist() == scaled.kstar.tolist()
    print("ACCEPTANCE 8 PASS: conservation per filter; ranks invariant under x7")


def scale_free_graph(n=5000, m=4, seed=1998):
    """Preferential attachment: new nodes link to m endpoints drawn from the
    running endpoint pool, so in-degree follows a power law."""
    rng = np.random.default_rng(seed)
    sources, targets = [], []
    pool = list(range(m))
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(pool[rng.integers(0, len(pool))])
        for t in sorted(chosen):
            sources.append(v)
            targets.append(t)
            pool.append(t)
        pool.append(v)
    return DirectedGraph.from_edges(n, sources, targets)


def test_criterion_09_alpha_robustness_report():
    g = scale_free_graph()
    alphas = (0.5, 0.65, 0.85, 0.95)
    tops = {}
    for a in alphas:
        params = GoogleParams(alpha=a, tol=1e-10, max_iter=2000)
        tops[a] = rank_indices(pagerank(g, params)).ordering[:100].tolist()
    report = {(a, b): overlap(tops[a], tops[b])
              for i, a in enumerate(alphas) for b in alphas[i + 1:]}
    assert len(report) == 6
    print("ACCEPTANCE 9 PASS (report-only): top-100 overlaps across alpha:")
    for (a, b), shared in sorted(report.items()):
        assert 0 <= shared <= 100
        print(f"    alpha {a} vs {b}: {shared}/100")


def test_criterion_10_performance_envelope():
    n, e = 1_000_000, 10_000_000
    rng = np.random.default_rng(20130214)
    src = rng.integers(0, n, size=e, dtype=np.int64)
    tgt = rng.integers(0, n, size=e, dtype=np.int64)
    g = DirectedGraph.from_edges(n, src, tgt, drop_self_loops=True)
    del src, tgt
    # the raw edge list in memory: one int64 source + target per edge
    edge_footprint = 16 * g.edge_count

    params = GoogleParams(alpha=ALPHA, tol=1e-10, max_iter=300)
    tracemalloc.start()
    started = time.perf_counter()
    vector = pagerank(g, params)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert vector.iterations_used <= 300
    assert elapsed <= 60.0, f"pagerank took {elapsed:.1f}s"
    assert peak <= 4 * edge_footprint, (
        f"peak {peak / 1e6:.0f}MB over 4x edge footprint "
        f"{4 * edge_footprint / 1e6:.0f}MB")
    assert abs(float(vector.probabilities.sum()) - 1.0) <= 1e-12
    print(f"ACCEPTANCE 10 PASS: {g.edge_count} edges, "
          f"{vector.iterations_used} iterations, {elapsed:.1f}s, "
          f"peak {peak / 1e6:.0f}MB <= {4 * edge_footprint / 1e6:.0f}MB")


REAL_DATA = os.environ.get("GMRANK_REAL_DATA", "")


@pytest.mark.skipif(not REAL_DATA, reason="set GMRANK_REAL_DATA to run the "
                    "real-data reproduction")
def test_criterion_11_real_data_mode():
    root = Path(REAL_DATA)
    with open(root / "persons.tsv", encoding="utf-8") as f:
        registry = load_persons(f)
    toplists = []
    toplist_dir = root / "toplists"
    for code in EDITION_CODES:
        if toplist_dir.is_dir():
            from gmrank.tableio import read_toplist_csv
            with open(toplist_dir / f"{code}_pagerank.csv", encoding="utf-8") as f:
                toplists.append(read_toplist_csv(f, code, "pagerank"))
        else:
            with open(root / f"{code.lower()}.edges", encoding="utf-8") as f:
                g = load_edge_list(f, label_mode="string-labels")
            index = rank_indices(pagerank(g, GoogleParams()))
            toplists.append(select_top_people(index, g.labels, registry, code,
                                              "pagerank"))
    en = next(t for t in toplists if t.edition == "EN")
    assert en.entries[0][0] == "Napoleon"
    entries = global_ranking(toplists)
    assert entries[0].person_id == "Carl Linnaeus"
    assert entries[0].theta == 2284
    assert entries[0].n_appear == 24
    counts = {c.language: c for c in
              language_representation(registry, toplists, entries[:100])}
    assert counts["EN"].n2 == 47
    with open(root / "reference.txt", encoding="utf-8") as f:
        reference = load_reference_list(f)
    top100 = [entry.person_id for entry in entries[:100]]
    assert overlap(top100, reference) == 43
    print("ACCEPTANCE 11 PASS: real-data reproduction matches published values")


def real_data_corpus(root, persons=120, seed=11):
    """A generated corpus in the real-data layout, and its expected orders.

    Person i has a title in the k-th edition unless (i + k) % 3 == 0; EN
    titles everyone.  Each edition draws distinct in-link weights for its
    persons, and filler article F_j links to every person whose weight
    exceeds j.  A person's in-links are then a superset of those of every
    lighter person, so PageRank orders an edition's persons by weight.
    Returns each edition's persons in that order and the reference names.
    """
    rng = np.random.default_rng(seed)
    ids = [f"Person_{i:03d}" for i in range(persons)]
    countries = ("US", "FR", "DE", "JP", "XX")      # EN, FR, DE, JA and WR
    titles = {code: {i: ids[i] if code == "EN" else f"{ids[i]}_{code}"
                     for i in range(persons) if code == "EN" or (i + k) % 3}
              for k, code in enumerate(EDITION_CODES)}
    order = {}
    for code, titled in titles.items():
        weight = dict(zip(titled, rng.permutation(len(titled)) + 1))
        lines = [f"F{j} F{j + 1}" for j in range(max(weight.values()) - 1)]
        lines += [f"F{j} {titled[i]}" for i, w in weight.items()
                  for j in range(w)]
        (root / f"{code.lower()}.edges").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
        order[code] = [ids[i] for i in sorted(weight, key=weight.get,
                                              reverse=True)]
    rows = ["\t".join(("person_id", "birth_country", "birth_year", "gender",
                       *EDITION_CODES))]
    for i, pid in enumerate(ids):
        year = "" if i % 17 == 0 else str(1500 + 4 * i)
        rows.append("\t".join((pid, countries[i % 5], year,
                               "female" if i % 4 == 0 else "male",
                               *(titles[c].get(i, "") for c in EDITION_CODES))))
    (root / "persons.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    reference = ids[::3] + ["Nobody_Listed"]
    (root / "reference.txt").write_text(
        "# generated reference\n" + "\n".join(reference) + "\n",
        encoding="utf-8")
    return order, reference


def real_data_calls(root):
    """Each call criterion 11 makes, in its order, on the data under root."""
    with open(root / "persons.tsv", encoding="utf-8") as f:
        registry = load_persons(f)
    toplists = []
    toplist_dir = root / "toplists"
    for code in EDITION_CODES:
        if toplist_dir.is_dir():
            with open(toplist_dir / f"{code}_pagerank.csv", encoding="utf-8") as f:
                toplists.append(read_toplist_csv(f, code, "pagerank"))
        else:
            with open(root / f"{code.lower()}.edges", encoding="utf-8") as f:
                g = load_edge_list(f, label_mode="string-labels")
            index = rank_indices(pagerank(g, GoogleParams()))
            toplists.append(select_top_people(index, g.labels, registry, code,
                                              "pagerank"))
    entries = global_ranking(toplists)
    counts = {c.language: c for c in
              language_representation(registry, toplists, entries[:100])}
    with open(root / "reference.txt", encoding="utf-8") as f:
        reference = load_reference_list(f)
    top100 = [entry.person_id for entry in entries[:100]]
    return registry, toplists, entries, counts, overlap(top100, reference)


def test_real_data_mode_calls_on_generated_corpus(tmp_path):
    # criterion 11's calls on generated data, so an API change breaks a
    # test that runs; only invariants are checked, no published value
    order, reference = real_data_corpus(tmp_path)
    registry, toplists, entries, counts, shared = real_data_calls(tmp_path)
    assert [t.edition for t in toplists] == list(EDITION_CODES)
    for toplist in toplists:
        assert toplist.entries == tuple(
            (pid, rank) for rank, pid in enumerate(order[toplist.edition][:100],
                                                   start=1))
    assert len(toplists[0].entries) == 100          # EN titles all 120
    for entry in entries:
        ranks = [rank for t in toplists for pid, rank in t.entries
                 if pid == entry.person_id]
        assert (entry.theta, entry.n_appear) == (sum(101 - r for r in ranks),
                                                 len(ranks))
    thetas = [entry.theta for entry in entries]
    assert thetas == sorted(thetas, reverse=True) and len(entries) == 120
    top100 = {entry.person_id for entry in entries[:100]}
    assert sum(c.n1 for c in counts.values()) == 100
    for toplist in toplists:
        assert counts[toplist.edition].n2 == sum(
            registry.get(pid).culture == toplist.edition
            for pid, _ in toplist.entries)
    assert shared == len(top100 & set(reference)) > 0
    # the pass over a toplists/ directory reads back the lists just selected
    (tmp_path / "toplists").mkdir()
    for toplist in toplists:
        with open(tmp_path / "toplists" / f"{toplist.edition}_pagerank.csv",
                  "w", encoding="utf-8") as f:
            write_toplist_csv(f, toplist, registry)
    _, again, *rest = real_data_calls(tmp_path)
    assert again == toplists
    assert rest == [entries, counts, shared]
