"""Edge-list loading, dedup/self-loop handling, reversal and degree counts."""
import io
import os
import tracemalloc

import numpy as np
import pytest

from gmrank import graph
from gmrank.graph import (BYTES_PER_NODE, INTEGER_IDS, MAX_EDGE_COUNT,
                          MAX_NODE_COUNT, STRING_LABELS, DirectedGraph,
                          EdgeListError, load_edge_list, reverse)
from gmrank.rank import cheirank, pagerank

from conftest import random_graph


def load(text, **kw):
    return load_edge_list(io.StringIO(text), **kw)


def edges(g):
    src, tgt = g.edge_arrays()
    return set(zip(src.tolist(), tgt.tolist()))


def dangling_count(g):
    return int(np.count_nonzero(g.out_degree == 0))


class TestLoadEdgeList:
    def test_duplicates_collapse(self):
        g = load("0 1\n0 1\n1 0\n")
        assert g.node_count == 2
        assert g.edge_count == 2
        assert edges(g) == {(0, 1), (1, 0)}

    def test_self_loop_dropped_by_default(self):
        g = load("0 0\n")
        assert g.node_count == 1
        assert g.edge_count == 0
        assert g.self_loops_removed == 1

    def test_self_loop_kept_on_request(self):
        g = load("0 0\n0 1\n", drop_self_loops=False)
        assert g.edge_count == 2
        assert (0, 0) in edges(g)

    def test_string_labels_interned_in_first_appearance_order(self):
        g = load("a b\nb c\n", label_mode="string-labels")
        assert g.node_count == 3
        assert g.labels == ("a", "b", "c")
        assert edges(g) == {(0, 1), (1, 2)}

    def test_comments_and_blank_lines_skipped(self):
        g = load("# a comment\n\n0 1\n")
        assert g.edge_count == 1

    def test_header_declares_node_count(self):
        g = load("# nodes: 5\n0 1\n")
        assert g.node_count == 5
        assert dangling_count(g) == 4

    def test_header_range_error(self):
        with pytest.raises(EdgeListError, match="line 2"):
            load("# nodes: 2\n0 5\n")

    @pytest.mark.parametrize("text, label_mode", [
        ("0 7\n# nodes: 5\n", INTEGER_IDS),
        ("0 3\n# nodes: 10\n", INTEGER_IDS),
        ("# nodes: 9\n# nodes: 3\n0 5\n", INTEGER_IDS),
        ("a b\n# nodes: 2\n", STRING_LABELS),
    ], ids=["after-edge-out-of-range", "after-edge-in-range", "repeated",
            "after-labelled-edge"])
    def test_late_or_repeated_header_refused(self, text, label_mode):
        with pytest.raises(EdgeListError, match=r"^line 2: a '# nodes:' "
                           "header comes once, before the first edge$"):
            load(text, label_mode=label_mode)

    def test_header_after_blank_and_comment_lines_counts(self):
        g = load("\n# a comment\n\n# nodes: 5\n0 1\n")
        assert g.node_count == 5 and g.edge_count == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 3"):
            load("0 1\n1 2\n1 2 3\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListError, match="line 1"):
            load("a b\n")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListError):
            load("-1 2\n")

    def test_empty_stream(self):
        g = load("")
        assert g.node_count == 0 and g.edge_count == 0

    def test_label_header_mismatch(self):
        with pytest.raises(EdgeListError):
            load("# nodes: 5\na b\n", label_mode="string-labels")

    @pytest.mark.parametrize("text", [
        f"# nodes: {MAX_NODE_COUNT}\n0 1\n",
        f"0 {MAX_NODE_COUNT - 1}\n",
    ], ids=["header", "largest-id"])
    def test_node_count_at_limit_reaches_build(self, text, monkeypatch):
        # the build is stubbed, so the limit itself allocates nothing
        def build(node_count, *args, **kwargs):
            raise RuntimeError(f"build of {node_count} nodes")
        monkeypatch.setattr(DirectedGraph, "from_edges", build)
        with pytest.raises(RuntimeError,
                           match=f"build of {MAX_NODE_COUNT} nodes"):
            load(text)


class TestMemoryLimit:
    def test_graph_over_the_limit_refused(self, monkeypatch):
        monkeypatch.setattr(graph, "_memory_limit",
                            lambda: 100 * BYTES_PER_NODE - 1)
        with pytest.raises(ValueError, match=r"^node count 100 needs about "
                           r"0\.0 GiB to rank, over the 0\.0 GiB this "
                           r"process may use$"):
            DirectedGraph.from_edges(100, [0], [1])

    def test_graph_at_the_limit_or_without_one_built(self, monkeypatch):
        for limit in (100 * BYTES_PER_NODE, None):
            monkeypatch.setattr(graph, "_memory_limit", lambda: limit)
            assert DirectedGraph.from_edges(100, [0], [1]).edge_count == 1

    def test_limit_is_at_most_physical_memory(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert 0 < graph._memory_limit() <= physical


class TestReverse:
    def test_single_edge_flips(self):
        g = load("0 1\n")
        r = reverse(g)
        assert edges(r) == {(1, 0)}

    def test_involution_on_random_graph(self):
        g = random_graph(np.random.default_rng(3), 50, 0.05)
        assert reverse(reverse(g)) == g

    def test_symmetric_graph_unchanged(self):
        g = load("0 1\n1 0\n1 2\n2 1\n")
        assert reverse(g) == g

    def test_preserves_counts_and_swaps_degrees(self):
        g = random_graph(np.random.default_rng(4), 30, 0.1)
        r = reverse(g)
        assert r.node_count == g.node_count
        assert r.edge_count == g.edge_count
        assert np.array_equal(r.out_degree, g.in_degree)
        assert np.array_equal(r.in_degree, g.out_degree)


def flipped(g):
    """The reversal as one build from the flipped edge pairs."""
    src, tgt = g.edge_arrays()
    rev = DirectedGraph.from_edges(g.node_count, tgt, src, labels=g.labels)
    return DirectedGraph(rev.in_indptr, rev.in_sources, rev.labels,
                         g.self_loops_removed)


REVERSE_CASES = {
    "labels-and-self-loops": lambda: load(
        "a b\nb b\nc a\na c\nc c\nd a\n", label_mode="string-labels",
        drop_self_loops=False),
    "self-loops-removed": lambda: load("0 0\n0 1\n2 1\n1 1\n"),
    "isolated-nodes": lambda: load("# nodes: 9\n7 2\n2 7\n3 2\n"),
    "no-edges": lambda: DirectedGraph.from_edges(4, [], []),
    "no-nodes": lambda: DirectedGraph.from_edges(0, [], []),
    "random": lambda: random_graph(np.random.default_rng(8), 200, 0.03),
}


class TestReverseMatchesFlippedBuild:
    @pytest.mark.parametrize("case", REVERSE_CASES)
    def test_same_arrays_dtypes_and_bookkeeping(self, case):
        g = REVERSE_CASES[case]()
        got, expected = reverse(g), flipped(g)
        assert got.node_count == expected.node_count
        for name, dtype in (("in_indptr", np.int32), ("in_sources", np.int32),
                            ("out_degree", np.int64)):
            array, oracle = getattr(got, name), getattr(expected, name)
            assert array.dtype == oracle.dtype == dtype, name
            assert np.array_equal(array, oracle), name
        assert got.labels == expected.labels
        assert got.self_loops_removed == g.self_loops_removed


def ids(*values):
    return np.array(values, dtype=np.int64)


class TestConstructorRules:
    """Every graph, however built, holds consistent arrays."""

    @pytest.mark.parametrize("in_indptr, in_sources, labels, match", [
        (ids(0, 1, 2), ids(5, 0), None, r"source id outside \[0, 2\)"),
        (ids(0, 0, 0), ids(), ("a",), "^expected 2 labels, found 1$"),
        (ids(), ids(), None, "^edge offsets inconsistent with edge count$"),
        (ids(1, 1), ids(0), None, "^edge offsets inconsistent"),
        (ids(0, 2, 1, 2), ids(0, 1), None, "^edge offsets inconsistent"),
        (ids(0, 1, 1), ids(0, 0), None, "^edge offsets inconsistent"),
        (ids(0, 1), ids(-1), None, r"^source id outside \[0, 1\)$"),
        (ids(0, 1), ids(1), None, r"^source id outside \[0, 1\)$"),
        (np.array([0.0, 1.0]), np.array([0.0]), None,
         "^edge arrays must be 1-D signed integer arrays$"),
        (ids(0, 1), np.array([0.0]), None, "1-D signed integer"),
        ([0, 1], [0], None, "1-D signed integer"),
        (ids(0, 1).reshape(1, 2), ids(0), None, "1-D signed integer"),
        # link 0 -> 1 twice: out_degree would count it twice
        (ids(0, 0, 2, 3), ids(0, 0, 0), None,
         "^sources not strictly ascending within a target$"),
        (ids(0, 0, 2), ids(1, 0), None, "^sources not strictly ascending"),
    ], ids=["source-beyond-n", "one-label-for-two-nodes", "empty-offsets",
            "first-offset-1", "falling-offsets", "last-offset-not-e",
            "source-negative", "source-equals-n", "float-arrays",
            "float-sources", "lists", "2-d-offsets", "repeated-source",
            "descending-sources"])
    def test_broken_graph_refused_naming_the_rule(self, in_indptr,
                                                   in_sources, labels, match):
        with pytest.raises(ValueError, match=match):
            DirectedGraph(in_indptr, in_sources, labels)

    def test_from_edges_labels_counted_by_the_constructor(self):
        with pytest.raises(ValueError, match="^expected 3 labels, found 2$"):
            DirectedGraph.from_edges(3, [0], [1], labels=("a", "b"))

    def test_random_arrays_refused_or_ranked(self):
        # small random graphs, every other one with an entry moved by up to
        # 3: each is refused at construction, or is the graph from_edges
        # builds from its own edges and ranks to two distributions
        rng = np.random.default_rng(21)
        outcomes = set()
        for trial in range(200):
            n = int(rng.integers(1, 7))
            groups = [np.sort(rng.choice(n, int(rng.integers(0, min(n, 3) + 1)),
                                         replace=False)) for _ in range(n)]
            in_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([group.size for group in groups], out=in_indptr[1:])
            in_sources = np.concatenate(groups).astype(np.int64)
            broken = trial % 2 == 1
            if broken:
                array = (in_sources if in_sources.size and rng.random() < 0.5
                         else in_indptr)
                array[rng.integers(array.size)] += rng.choice([-3, -2, -1, 1, 2, 3])
            try:
                g = DirectedGraph(in_indptr, in_sources)
            except ValueError:
                assert broken
                outcomes.add("refused")
                continue
            outcomes.add("broken but built" if broken else "built")
            assert g == DirectedGraph.from_edges(n, *g.edge_arrays())
            for rank in (pagerank, cheirank):
                p = rank(g).probabilities
                assert p.shape == (n,) and p.min() > 0
                assert abs(p.sum() - 1.0) <= 1e-12
        assert outcomes == {"built", "broken but built", "refused"}

    def test_out_degree_counted_on_first_use(self):
        g = load("0 1\n0 2\n2 0\n")
        assert "out_degree" not in vars(g)
        assert g.out_degree.tolist() == [2, 0, 1]
        assert g.out_degree is g.out_degree


class TestStats:
    def test_no_edges_all_dangling(self):
        g = DirectedGraph.from_edges(3, [], [])
        assert dangling_count(g) == 3 and g.edge_count == 0

    def test_cycle_has_no_dangling(self):
        g = load("0 1\n1 2\n2 0\n")
        assert dangling_count(g) == 0 and g.edge_count == 3

    def test_star_leaves_dangle(self):
        g = load("0 1\n0 2\n0 3\n")
        assert dangling_count(g) == 3


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_degrees_consistent_with_edge_set(self, seed):
        g = random_graph(np.random.default_rng(seed), 60, 0.04)
        src, tgt = g.edge_arrays()
        assert np.array_equal(np.bincount(src, minlength=g.node_count),
                              g.out_degree)
        assert np.array_equal(np.bincount(tgt, minlength=g.node_count),
                              g.in_degree)
        assert int(g.out_degree.sum()) == g.edge_count
        assert int(g.in_degree.sum()) == g.edge_count

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges(2, [0], [2])


def lexsort_build(node_count, sources, targets, drop_self_loops):
    """Reference build: two-key lexsort by target, then source."""
    src = np.asarray(sources, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    removed = 0
    if drop_self_loops:
        keep = src != tgt
        removed = int(src.size - np.count_nonzero(keep))
        src, tgt = src[keep], tgt[keep]
    order = np.lexsort((src, tgt))
    src, tgt = src[order], tgt[order]
    uniq = np.ones(src.size, dtype=bool)
    uniq[1:] = (src[1:] != src[:-1]) | (tgt[1:] != tgt[:-1])
    src, tgt = src[uniq], tgt[uniq]
    in_indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(tgt, minlength=node_count), out=in_indptr[1:])
    return (in_indptr, src, np.bincount(src, minlength=node_count), removed)


def divmod_build(node_count, sources, targets, drop_self_loops):
    """The previous key-sort build: self-loops masked out of the pairs
    first, targets and sources split back out of the unique keys by
    ``divmod``."""
    src = np.asarray(sources, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    removed = 0
    if drop_self_loops and src.size:
        keep = src != tgt
        removed = int(src.size - np.count_nonzero(keep))
        src, tgt = src[keep], tgt[keep]
    if src.size:
        key = tgt * node_count
        key += src
        key.sort()
        uniq = np.ones(key.size, dtype=bool)
        uniq[1:] = key[1:] != key[:-1]
        tgt, src = np.divmod(key[uniq], node_count)
    in_indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(tgt, minlength=node_count), out=in_indptr[1:])
    out_degree = np.bincount(src, minlength=node_count).astype(np.int64)
    return in_indptr, src, out_degree, removed


def assert_matches_reference_builds(node_count, sources, targets,
                                    drop_self_loops):
    """The build equals both reference builds: the lexsort one and a copy
    of the previous key-sort one."""
    g = DirectedGraph.from_edges(node_count, sources, targets,
                                 drop_self_loops=drop_self_loops)
    for oracle in (lexsort_build, divmod_build):
        in_indptr, in_sources, out_degree, removed = oracle(
            node_count, sources, targets, drop_self_loops)
        for got, want, dtype in ((g.in_indptr, in_indptr, np.int32),
                                 (g.in_sources, in_sources, np.int32),
                                 (g.out_degree, out_degree, np.int64)):
            assert got.dtype == dtype
            assert np.array_equal(got, want)
        assert g.self_loops_removed == removed


class TestKeySortBuild:
    @pytest.mark.parametrize("drop_self_loops", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_lexsort_oracle(self, seed, drop_self_loops):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # ids drawn below `active`: nodes from `active` on are isolated, and
        # 4n pairs over few ids give many duplicates and self-loops
        active = int(rng.integers(1, n + 1))
        m = int(rng.integers(0, 4 * n))
        src = rng.integers(0, active, m)
        tgt = rng.integers(0, active, m)
        assert_matches_reference_builds(n, src, tgt, drop_self_loops)

    @pytest.mark.parametrize("drop_self_loops", [False, True])
    @pytest.mark.parametrize("node_count, sources, targets", [
        (0, [], []),
        (4, [], []),
        (1, [0, 0, 0], [0, 0, 0]),
        (1, [], []),
        (6, [2, 2, 1, 2, 0], [1, 1, 2, 2, 1]),
    ], ids=["empty-graph", "no-edges", "one-node-loops", "one-node",
            "trailing-isolated"])
    def test_edge_cases_match_lexsort_oracle(self, node_count, sources,
                                             targets, drop_self_loops):
        assert_matches_reference_builds(node_count, sources, targets,
                                        drop_self_loops)

    def test_keys_at_the_node_limit_fit_in_int64(self):
        int64_max = int(np.iinfo(np.int64).max)
        assert MAX_NODE_COUNT * MAX_NODE_COUNT - 1 <= int64_max

    def test_over_key_limit_rejected(self):
        with pytest.raises(ValueError, match=f"over the limit {MAX_NODE_COUNT}"):
            DirectedGraph.from_edges(MAX_NODE_COUNT + 1, [0], [1])

    def test_node_limit_checked_before_the_memory_estimate(self, monkeypatch):
        def estimate():
            raise AssertionError("memory estimate reached")
        monkeypatch.setattr(graph, "_memory_limit", estimate)
        with pytest.raises(ValueError, match=r"^node count 268435457 over "
                           r"the limit 268435456$"):
            DirectedGraph.from_edges(2**28 + 1, [0], [1])


class TestEdgeLimit:
    def test_limit_is_the_int32_maximum(self):
        # scipy keeps int32 index arrays up to this many entries
        assert MAX_EDGE_COUNT == np.iinfo(np.int32).max == 2**31 - 1

    def test_distinct_edges_over_the_limit_refused(self, monkeypatch):
        # a limit of 2 stands in for 2**31 - 1, which would need 2**31 pairs
        monkeypatch.setattr(graph, "MAX_EDGE_COUNT", 2)
        assert DirectedGraph.from_edges(3, [0, 0, 1, 2], [1, 1, 2, 2],
                                        drop_self_loops=True).edge_count == 2
        with pytest.raises(ValueError, match=r"^edge count 3 over the limit 2$"):
            DirectedGraph.from_edges(3, [0, 1, 2], [1, 2, 0])


class TestBuildPeak:
    @pytest.mark.parametrize("drop_self_loops", [False, True])
    def test_at_most_20_bytes_per_pair_beyond_inputs(self, drop_self_loops):
        # the shape of the rank-slowmix benchmark graph: 1M pairs, 200k
        # nodes, a few self-loops
        rng = np.random.default_rng(5)
        n, m = 200_000, 1_000_000
        src = rng.integers(0, n, m)
        tgt = rng.integers(0, n, m)
        tgt[:1000] = src[:1000]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = DirectedGraph.from_edges(n, src, tgt,
                                         drop_self_loops=drop_self_loops)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0.99 * m - 1000
        assert peak <= 20 * m, f"{peak / m:.1f} B/pair"


class TestRankPeak:
    def test_cheirank_at_most_25_bytes_per_edge_beyond_the_graph(self):
        # TestBuildPeak's graph.  The peak holds the reversed graph, the
        # matrix data over its arrays and the per-node vectors; scipy's
        # int32 copies of int64 index arrays would add about 9 B/edge
        rng = np.random.default_rng(5)
        n, m = 200_000, 1_000_000
        src = rng.integers(0, n, m)
        tgt = rng.integers(0, n, m)
        tgt[:1000] = src[:1000]
        g = DirectedGraph.from_edges(n, src, tgt, drop_self_loops=True)
        del src, tgt
        reference = cheirank(g)     # imports scipy and the sweep pool first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            vector = cheirank(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert vector == reference
        e = g.edge_count
        assert peak <= 25 * e, f"{peak / e:.1f} B/edge"
