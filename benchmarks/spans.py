"""In-memory span tracing of gmrank's public functions, from outside the package.

A :class:`Tracer` replaces each traced function at every module attribute
through which the pipeline resolves it (``gmrank.cli`` imports most
functions by name; ``cheirank`` reaches ``reverse`` and ``pagerank``
through ``gmrank.rank``), records one span per call, and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

A span's self time is its duration minus that of its child spans.  Every
``*_s`` layer metric below is a sum of self times, so together with
``cli.self_s`` (the traced wall time no other layer claims) they add up to
the traced wall time.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

# function name -> layer metric its self time counts toward.  Functions are
# looked up in their defining module; see Tracer.install for the namespaces.
TRACED = {
    "gmrank.graph": {
        "load_edge_list": "graph.parse_s",
        "reverse": "graph.reverse_s",
    },
    "gmrank.rank": {
        "pagerank": "rank.pagerank_s",
        "cheirank": "rank.cheirank_s",
        "rank_indices": "rank.order_s",
        "two_d_rank": "rank.order_s",
    },
    "gmrank.cache": {
        "content_hash": "cache.hash_s",
        "read_vector": "cache.read_s",
        "write_vector": "cache.write_s",
    },
    "gmrank.registry": {
        "load_persons": "registry.load_s",
        "load_culture_map": "registry.load_s",
        "default_culture_map": "registry.load_s",
        "select_top_people": "registry.select_s",
    },
    "gmrank.aggregate": {
        "global_ranking": "aggregate.global_ranking_s",
        **{name: "aggregate.tables_s" for name in (
            "classify_figures", "filter_by_gender", "per_culture_top",
            "spatial_distribution", "temporal_distribution",
            "column_normalize", "edition_average", "locality_ratio",
            "gender_distribution", "language_representation",
            "load_reference_list", "overlap")},
    },
    "gmrank.cultures": {
        "build_culture_network": "cultures.network_s",
        "culture_google_matrix": "cultures.rank_s",
        "culture_ranks": "cultures.rank_s",
    },
    "gmrank.tableio": {
        "read_toplist_csv": "tableio.read_toplists_s",
        **{name: "tableio.write_s" for name in (
            "write_toplist_csv", "write_global_csv", "write_culture_slices_csv",
            "write_distribution_csv", "write_locality_csv", "write_gender_csv",
            "write_language_counts_csv", "write_overlap_json",
            "write_culture_network_csv", "write_culture_ranks_csv",
            "write_culture_matrix_csv")},
    },
    "gmrank.cli": {
        "main": "cli.self_s",
    },
}

# Namespaces searched besides the defining module.  gmrank.cultures is left
# out on purpose: its own rank_indices/two_d_rank calls are culture ranking.
RESOLVERS = ("gmrank", "gmrank.cli", "gmrank.rank")

TIME_METRICS = (
    "graph.parse_s", "graph.build_s", "graph.reverse_s",
    "rank.pagerank_s", "rank.cheirank_s", "rank.order_s",
    "cache.hash_s", "cache.read_s", "cache.write_s",
    "registry.load_s", "registry.select_s",
    "aggregate.global_ranking_s", "aggregate.tables_s",
    "cultures.network_s", "cultures.rank_s",
    "tableio.write_s", "tableio.read_toplists_s",
)

# span record fields
NAME, METRIC, START, END, PARENT, INFO_FIELD = range(6)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# What each traced call keeps for counting, taken after its span closes: only
# O(1) work, so the parent span's self time stays clean.  Counts that need a
# scan (file sizes, nodes scanned) are made after the traced section.  A call
# that raised keeps nothing.
COUNTED = {
    "graph.from_edges": lambda a, k, r: len(_arg(a, k, 3, "targets")),
    "rank.pagerank": lambda a, k, r: (r.iterations_used,
                                      _arg(a, k, 0, "g").edge_count),
    "cache.content_hash": lambda a, k, r: _arg(a, k, 0, "path"),
    "cache.read_vector": lambda a, k, r: True,
    "registry.select_top_people": lambda a, k, r: (
        _arg(a, k, 0, "ranked"), _arg(a, k, 1, "labels"),
        _arg(a, k, 2, "registry"), _arg(a, k, 3, "edition"),
        a[5] if len(a) > 5 else k.get("n", 100), r),
}


class Tracer:
    """Records spans ``[name, metric, start_ns, end_ns, parent, info]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, metric: str) -> list:
        record = [name, metric, 0, 0,
                  self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, metric: str):
        counted = COUNTED.get(name)

        def traced(*args, **kwargs):
            record = self._open(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counted is not None:
                record[INFO_FIELD] = counted(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_atomic_write(self, fn):
        """``tableio.atomic_write`` is a context manager: span the whole block."""
        @contextmanager
        def traced(path, binary=False):
            record = self._open("tableio.atomic_write",
                                "cache.write_s" if binary else "tableio.write_s")
            record[INFO_FIELD] = path
            try:
                with fn(path, binary=binary) as stream:
                    yield stream
            finally:
                self._close(record)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib
        from gmrank import graph, tableio

        resolvers = [importlib.import_module(m) for m in RESOLVERS]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[1]
            for attr, metric in functions.items():
                original = getattr(module, attr)
                traced = self.wrap(original, f"{short}.{attr}", metric)
                for namespace in (module, *resolvers):
                    if namespace.__dict__.get(attr) is original:
                        self._patch(namespace, attr, traced)
        build = graph.DirectedGraph.from_edges.__func__
        self._patch(graph.DirectedGraph, "from_edges", classmethod(
            self.wrap(build, "graph.from_edges", "graph.build_s")))
        self._patch(tableio, "atomic_write",
                    self.wrap_atomic_write(tableio.atomic_write))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans, self._stack = self.spans, [], []
        return spans


# -- analysis ----------------------------------------------------------------

def _under(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children, in s."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return [ns / 1e9 for ns in own]


def metric_of(spans: list[list], index: int) -> str:
    """Layer metric a span's self time counts toward.

    ``pagerank`` called by ``cheirank`` is CheiRank work.
    """
    metric = spans[index][METRIC]
    if metric == "rank.pagerank_s" and _under(spans, index, "rank.cheirank"):
        return "rank.cheirank_s"
    return metric


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _scanned_nodes(ranked, labels, registry, edition, requested, toplist) -> int:
    """Nodes select_top_people walked: rank position of the last person kept."""
    ordering = getattr(ranked, "ordering", ranked)
    if not toplist.entries or len(toplist.entries) < requested:
        return len(ordering)
    title = registry.get(toplist.entries[-1][0]).title_in(edition)
    try:
        node = labels.index(title)
    except ValueError:          # label equals the title only after NFC
        return len(ordering)
    position = getattr(ranked, "position", None)
    if position is not None:
        return int(position[node])
    return int((ordering == node).nonzero()[0][0]) + 1


def layer_metrics(spans: list[list], wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, and the base of each ratio."""
    own = self_times(spans)
    values = {name: 0.0 for name in TIME_METRICS}
    for i in range(len(spans)):
        metric = metric_of(spans, i)
        if metric != "cli.self_s":
            values[metric] += own[i]

    n = dict.fromkeys(("parse_calls", "parse_edges", "build_calls",
                       "build_edges", "pr_sweeps", "cr_sweeps", "sweep_medges",
                       "sweep_s", "hash_bytes", "hits", "misses", "load_calls",
                       "matched", "scanned", "global_calls", "bytes_written"), 0)
    for i, s in enumerate(spans):
        name, info = s[NAME], s[INFO_FIELD]
        if name == "graph.load_edge_list":
            n["parse_calls"] += 1
        elif name == "graph.from_edges" and info is not None:
            n["build_calls"] += 1
            n["build_edges"] += info
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "graph.load_edge_list":
                n["parse_edges"] += info
        elif name == "rank.pagerank" and info is not None:
            sweeps, edges = info
            key = "cr_sweeps" if metric_of(spans, i) == "rank.cheirank_s" else "pr_sweeps"
            n[key] += sweeps
            n["sweep_medges"] += sweeps * edges / 1e6
            n["sweep_s"] += (s[END] - s[START]) / 1e9
        elif name == "cache.content_hash" and info is not None:
            n["hash_bytes"] += _size(info)
        elif name == "cache.read_vector" and info:
            n["hits"] += 1
        elif name == "cache.write_vector":
            n["misses"] += 1
        elif name == "registry.load_persons":
            n["load_calls"] += 1
        elif name == "registry.select_top_people" and info is not None:
            n["matched"] += len(info[-1].entries)
            n["scanned"] += _scanned_nodes(*info)
        elif name == "aggregate.global_ranking":
            n["global_calls"] += 1
        elif name == "tableio.atomic_write" and s[METRIC] == "tableio.write_s":
            n["bytes_written"] += _size(info)

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = n["hits"] + n["misses"]
    values.update({
        "graph.parse_calls": n["parse_calls"],
        "graph.parse_edges_per_s": ratio(n["parse_edges"], values["graph.parse_s"]),
        "graph.build_calls": n["build_calls"],
        "graph.build_edges": n["build_edges"],
        "rank.pagerank_sweeps": n["pr_sweeps"],
        "rank.cheirank_sweeps": n["cr_sweeps"],
        "rank.ms_per_sweep_per_medge": ratio(1e3 * n["sweep_s"], n["sweep_medges"]),
        "cache.hash_bytes": n["hash_bytes"],
        "cache.hits": n["hits"],
        "cache.misses": n["misses"],
        "cache.hit_ratio": ratio(n["hits"], lookups),
        "registry.load_calls": n["load_calls"],
        "registry.match_ratio": ratio(n["matched"], n["scanned"]),
        "aggregate.global_ranking_calls": n["global_calls"],
        "tableio.bytes_written": n["bytes_written"],
        "trace.wall_s": wall_s,
    })
    values["cli.self_s"] = wall_s - sum(values[m] for m in TIME_METRICS)
    bases = {
        "graph.parse_edges_per_s": f"{n['parse_edges']} edge lines / graph.parse_s",
        "rank.ms_per_sweep_per_medge":
            f"{1e3 * n['sweep_s']:.1f} ms in pagerank calls / "
            f"{n['sweep_medges']:.2f} sweep-Medges",
        "cache.hit_ratio": f"{n['hits']} hits / {lookups} vector lookups",
        "registry.match_ratio":
            f"{n['matched']} persons kept / {n['scanned']} ranked nodes scanned",
        "cli.self_s": "trace.wall_s minus the self time of every other layer",
    }
    return values, bases


def dump(spans: list[list]) -> list[dict]:
    """JSON-ready spans of one iteration, times in seconds from its first span."""
    if not spans:
        return []
    origin = spans[0][START]
    own = self_times(spans)
    return [{"name": s[NAME], "metric": metric_of(spans, i),
             "start_s": (s[START] - origin) / 1e9, "end_s": (s[END] - origin) / 1e9,
             "self_s": own[i], "parent": s[PARENT]}
            for i, s in enumerate(spans)]
