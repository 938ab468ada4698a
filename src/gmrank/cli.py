"""Command-line pipeline: rank graphs, extract top people, aggregate, rank cultures.

Subcommands: ``rank``, ``top-people``, ``global``, ``culture``, ``selfcheck``.
Exit codes are a stable contract: 0 success, 1 self-check failure, 2 input
error, 3 numeric (convergence) error.  Identical inputs and configuration
produce byte-identical outputs; all files are written atomically.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from . import aggregate, cache, cultures, selfcheck, tableio
from .graph import (INTEGER_IDS, STRING_LABELS, DirectedGraph, EdgeListError,
                    load_edge_list)
from .rank import (CHEIRANK, PAGERANK, ConvergenceError, GoogleParams,
                   RankVector, cheirank, pagerank, rank_indices, two_d_rank)
from .registry import (EDITION_CODES, PAGERANK_LIST, TWODRANK_LIST,
                       PersonRegistry, default_culture_map, load_culture_map,
                       load_persons, select_top_people)

log = logging.getLogger("gmrank")

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CACHE_ENV = "GMRANK_CACHE_DIR"


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


@dataclass
class PipelineConfig:
    alpha: float = 0.85
    tol: float = 1e-10
    max_iter: int = 1000
    top_n: int = 100
    editions: list[tuple[str, Path]] = field(default_factory=list)
    persons_path: Path | None = None
    culture_map_path: Path | None = None
    output_dir: Path = Path("out")
    cache_dir: Path | None = None
    before_century: int | None = None

    def params(self) -> GoogleParams:
        return GoogleParams(alpha=self.alpha, tol=self.tol,
                            max_iter=self.max_iter)

    def validate(self) -> None:
        self.params()           # GoogleParams checks alpha, tol and max_iter
        if not (1 <= self.top_n <= 100):
            raise ConfigError(f"top_n must be in [1, 100], got {self.top_n}")
        if self.before_century == 0:
            raise ConfigError("there is no century 0")
        codes = [c for c, _ in self.editions]
        if len(set(codes)) != len(codes):
            raise ConfigError("duplicate edition codes in configuration")
        for code, path in self.editions:
            if code not in EDITION_CODES:
                raise ConfigError(f"unknown edition code {code!r}")
            if not path.is_file():
                raise ConfigError(f"edition {code}: no such file {path}")
        if self.persons_path is not None and not self.persons_path.is_file():
            raise ConfigError(f"persons file not found: {self.persons_path}")
        if (self.culture_map_path is not None
                and not self.culture_map_path.is_file()):
            raise ConfigError(
                f"culture map file not found: {self.culture_map_path}")

    def edition_path(self, code: str) -> Path:
        for c, path in self.editions:
            if c == code:
                return path
        raise ConfigError(f"edition {code!r} is not configured")


_SCALAR_KEYS = {
    "alpha": float, "tol": float, "max_iter": int, "top_n": int,
    "before_century": int,
}
_PATH_KEYS = ("persons", "culture_map", "output_dir", "cache_dir")


def load_config(path: str | Path) -> PipelineConfig:
    """Flat ``key = value`` lines plus an ``[editions]`` section of CODE = path.

    Relative paths are resolved against the config file's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    base = path.parent
    config = PipelineConfig()
    section = None
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line != "[editions]":
                raise ConfigError(f"config line {line_no}: unknown section {line}")
            section = "editions"
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "editions":
            config.editions.append((key.upper(), base / value))
        elif key in _SCALAR_KEYS:
            try:
                setattr(config, key, _SCALAR_KEYS[key](value))
            except ValueError:
                raise ConfigError(
                    f"config line {line_no}: bad value for {key}: {value!r}"
                ) from None
        elif key == "persons":
            config.persons_path = base / value
        elif key == "culture_map":
            config.culture_map_path = base / value
        elif key == "output_dir":
            config.output_dir = base / value
        elif key == "cache_dir":
            config.cache_dir = base / value
        else:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
    return config


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> None:
    for key in ("alpha", "tol", "max_iter", "top_n"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "output_dir", None) is not None:
        config.output_dir = Path(args.output_dir)
    if getattr(args, "cache_dir", None) is not None:
        config.cache_dir = Path(args.cache_dir)
    env_cache = os.environ.get(CACHE_ENV)
    if env_cache:
        config.cache_dir = Path(env_cache)


def _load_registry(config: PipelineConfig) -> PersonRegistry:
    if config.persons_path is None:
        raise ConfigError("no persons file configured")
    culture_map = default_culture_map()
    if config.culture_map_path is not None:
        with open(config.culture_map_path, encoding="utf-8") as f:
            culture_map = load_culture_map(f)
    with open(config.persons_path, encoding="utf-8") as f:
        return load_persons(f, culture_map)


def _computed_vector(g: DirectedGraph, algorithm: str,
                     params: GoogleParams) -> RankVector:
    if algorithm == PAGERANK:
        return pagerank(g, params)
    return cheirank(g, params)


def _ranked_vector(graph_path: Path, g: DirectedGraph, algorithm: str,
                   params: GoogleParams, cache_dir: Path | None,
                   label_mode: str, drop_self_loops: bool) -> RankVector:
    """Compute a rank vector, consulting the binary cache when enabled.

    ``label_mode`` and ``drop_self_loops`` are those ``g`` was parsed with.
    """
    if cache_dir is None:
        return _computed_vector(g, algorithm, params)
    key = cache.cache_key(cache.content_hash(graph_path), algorithm,
                          params.alpha, params.tol, label_mode,
                          drop_self_loops)
    path = cache.cache_path(cache_dir, key)
    if path.is_file():
        try:
            with open(path, "rb") as f:
                vector, _ = cache.read_vector(f)
            if len(vector) == g.node_count and vector.algorithm == algorithm:
                log.info("cache hit: %s (%s)", path.name, algorithm)
                return vector
            log.warning("cache file %s does not match graph, recomputing", path)
        except cache.CacheFormatError as exc:
            log.warning("corrupt cache file %s (%s), recomputing", path, exc)
    vector = _computed_vector(g, algorithm, params)
    with tableio.atomic_write(path, binary=True) as f:
        cache.write_vector(f, vector, params.alpha)
    return vector


def _load_graph(path: Path, label_mode: str,
                drop_self_loops: bool) -> DirectedGraph:
    with open(path, encoding="utf-8") as f:
        return load_edge_list(f, drop_self_loops=drop_self_loops,
                              label_mode=label_mode)


# -- subcommands --------------------------------------------------------------

def cmd_rank(args: argparse.Namespace) -> int:
    config = PipelineConfig()
    _apply_overrides(config, args)
    params = config.params()
    label_mode = STRING_LABELS if args.labels else INTEGER_IDS
    drop_self_loops = not args.keep_self_loops
    graph_path = Path(args.graph)
    g = _load_graph(graph_path, label_mode, drop_self_loops)
    if g.node_count == 0:
        raise EdgeListError("graph has no nodes")
    ranked_vector = partial(_ranked_vector, graph_path, g, params=params,
                            cache_dir=config.cache_dir, label_mode=label_mode,
                            drop_self_loops=drop_self_loops)

    out_path = Path(args.out)
    if args.algorithm in (PAGERANK, CHEIRANK):
        vector = ranked_vector(args.algorithm)
        index = rank_indices(vector)
        with tableio.atomic_write(out_path) as f:
            cache.write_rank_csv(f, vector, index, g.labels)
    else:  # 2drank
        kp = rank_indices(ranked_vector(PAGERANK))
        kc = rank_indices(ranked_vector(CHEIRANK))
        result = two_d_rank(kp, kc)
        with tableio.atomic_write(out_path) as f:
            f.write("node_id,label,k,kstar,kprime\n")
            for node in result.ordering.tolist():
                label = g.labels[node] if g.labels is not None else ""
                f.write(f"{node},{label},{kp.position[node]},"
                        f"{kc.position[node]},{result.kprime[node]}\n")
    log.info("wrote %s", out_path)
    return EXIT_OK


def _toplist_path(config: PipelineConfig, edition: str, algorithm: str) -> Path:
    return config.output_dir / "toplists" / f"{edition}_{algorithm}.csv"


def _extract_toplist(config: PipelineConfig, registry: PersonRegistry,
                     edition: str, algorithm: str) -> Path:
    graph_path = config.edition_path(edition)
    g = _load_graph(graph_path, STRING_LABELS, drop_self_loops=True)
    if g.labels is None or g.node_count == 0:
        raise EdgeListError(f"edition {edition}: graph has no labeled nodes")
    ranked_vector = partial(_ranked_vector, graph_path, g,
                            params=config.params(), cache_dir=config.cache_dir,
                            label_mode=STRING_LABELS, drop_self_loops=True)
    if algorithm == PAGERANK_LIST:
        ranked = rank_indices(ranked_vector(PAGERANK))
    else:
        ranked = two_d_rank(rank_indices(ranked_vector(PAGERANK)),
                            rank_indices(ranked_vector(CHEIRANK)))
    toplist = select_top_people(ranked, g.labels, registry, edition,
                                algorithm, n=config.top_n)
    if not toplist.entries:
        log.warning("edition %s: no registered persons matched", edition)
    path = _toplist_path(config, edition, algorithm)
    with tableio.atomic_write(path) as f:
        tableio.write_toplist_csv(f, toplist, registry)
    log.info("wrote %s (%d persons)", path, len(toplist))
    return path


def cmd_top_people(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    config.validate()
    registry = _load_registry(config)
    if args.all:
        codes = [code for code, _ in config.editions]
    else:
        if not args.edition:
            raise ConfigError("pass --edition CODE or --all")
        codes = [args.edition.upper()]
        config.edition_path(codes[0])     # fails fast if unconfigured
    for code in codes:
        _extract_toplist(config, registry, code, args.algorithm)
    return EXIT_OK


def _read_toplists(config: PipelineConfig, algorithm: str) -> list:
    toplists = []
    for code, _ in config.editions:
        path = _toplist_path(config, code, algorithm)
        if not path.is_file():
            raise ConfigError(
                f"missing top list for edition {code}: {path} "
                f"(run 'gmrank top-people' first)")
        with open(path, encoding="utf-8") as f:
            toplists.append(tableio.read_toplist_csv(f))
    return toplists


def cmd_global(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    config.validate()
    registry = _load_registry(config)
    algorithm = args.algorithm
    toplists = _read_toplists(config, algorithm)
    out = config.output_dir

    entries = aggregate.global_ranking(toplists)
    classes = aggregate.classify_figures(entries)
    with tableio.atomic_write(out / f"{algorithm}_global_ranking.csv") as f:
        tableio.write_global_csv(f, entries, classes, registry)

    if args.women:
        women = aggregate.filter_by_gender(entries, registry, "female")
        with tableio.atomic_write(
                out / f"{algorithm}_global_ranking_female.csv") as f:
            tableio.write_global_csv(f, women, classes, registry)

    slices = aggregate.per_culture_top(entries, registry, n=10)
    with tableio.atomic_write(out / f"{algorithm}_culture_top10.csv") as f:
        tableio.write_culture_slices_csv(f, slices)

    spatial = aggregate.spatial_distribution(toplists, registry)
    with tableio.atomic_write(out / f"{algorithm}_spatial_distribution.csv") as f:
        tableio.write_distribution_csv(f, [
            spatial, aggregate.column_normalize(spatial),
            aggregate.edition_average(spatial)])

    temporal = aggregate.temporal_distribution(toplists, registry)
    with tableio.atomic_write(out / f"{algorithm}_temporal_distribution.csv") as f:
        tableio.write_distribution_csv(f, [
            temporal, aggregate.column_normalize(temporal),
            aggregate.edition_average(temporal)])

    locality = aggregate.locality_ratio(toplists, registry)
    with tableio.atomic_write(out / f"{algorithm}_locality_ratio.csv") as f:
        tableio.write_locality_csv(f, locality)

    gender = aggregate.gender_distribution(toplists, registry)
    with tableio.atomic_write(out / f"{algorithm}_gender_distribution.csv") as f:
        tableio.write_gender_csv(f, gender)

    counts = aggregate.language_representation(
        registry,
        pagerank_toplists=toplists if algorithm == PAGERANK_LIST else None,
        twodrank_toplists=toplists if algorithm == TWODRANK_LIST else None)
    with tableio.atomic_write(out / f"{algorithm}_language_counts.csv") as f:
        tableio.write_language_counts_csv(f, counts)

    if args.reference:
        with open(args.reference, encoding="utf-8") as f:
            reference = aggregate.load_reference_list(f)
        top100 = [e.person_id for e in entries[:100]]
        report = {
            "algorithm": algorithm,
            "reference": Path(args.reference).name,
            "reference_size": len(set(reference)),
            "list_size": len(top100),
            "overlap": aggregate.overlap(top100, reference),
        }
        with tableio.atomic_write(out / f"{algorithm}_overlap_report.json") as f:
            tableio.write_overlap_json(f, report)

    log.info("aggregate outputs written to %s", out)
    return EXIT_OK


def cmd_culture(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    if args.before_century is not None:
        config.before_century = args.before_century
    config.validate()
    registry = _load_registry(config)
    algorithm = args.algorithm
    toplists = _read_toplists(config, algorithm)

    net = cultures.build_culture_network(
        toplists, registry, before_century=config.before_century,
        editions=[code for code, _ in config.editions])
    matrix = cultures.culture_google_matrix(net, config.alpha)
    ranks = cultures.culture_ranks(net, config.alpha)

    suffix = (f"_before{config.before_century}"
              if config.before_century is not None else "")
    out = config.output_dir
    with tableio.atomic_write(
            out / f"{algorithm}_culture_network{suffix}.csv") as f:
        tableio.write_culture_network_csv(f, net)
    with tableio.atomic_write(
            out / f"{algorithm}_culture_ranks{suffix}.csv") as f:
        tableio.write_culture_ranks_csv(f, ranks)
    with tableio.atomic_write(
            out / f"{algorithm}_culture_matrix{suffix}.csv") as f:
        tableio.write_culture_matrix_csv(f, matrix, ranks.pagerank_ordering)
    log.info("culture outputs written to %s", out)
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = selfcheck.run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFCHECK


# -- argument parsing ----------------------------------------------------------

def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None,
                        help="damping factor (default 0.85)")
    parser.add_argument("--tol", type=float, default=None,
                        help="L1 convergence tolerance (default 1e-10)")
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                        help="iteration cap (default 1000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmrank",
        description="Google-matrix ranking of directed hyperlink networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank one edge-list graph")
    p_rank.add_argument("graph", help="edge-list file")
    p_rank.add_argument("--algorithm", default=PAGERANK,
                        choices=[PAGERANK, CHEIRANK, "2drank"])
    p_rank.add_argument("--out", required=True, help="output CSV path")
    p_rank.add_argument("--labels", action="store_true",
                        help="treat tokens as string labels, not integer ids")
    p_rank.add_argument("--keep-self-loops", action="store_true")
    p_rank.add_argument("--cache-dir", default=None)
    _add_param_flags(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_top = sub.add_parser("top-people", help="extract a per-edition top list")
    p_top.add_argument("--config", required=True)
    p_top.add_argument("--edition", default=None)
    p_top.add_argument("--all", action="store_true",
                       help="process every configured edition")
    p_top.add_argument("--algorithm", default=PAGERANK_LIST,
                       choices=[PAGERANK_LIST, TWODRANK_LIST])
    p_top.add_argument("--top-n", dest="top_n", type=int, default=None)
    p_top.add_argument("--output-dir", default=None)
    p_top.add_argument("--cache-dir", default=None)
    _add_param_flags(p_top)
    p_top.set_defaults(func=cmd_top_people)

    p_global = sub.add_parser("global", help="aggregate top lists globally")
    p_global.add_argument("--config", required=True)
    p_global.add_argument("--algorithm", default=PAGERANK_LIST,
                          choices=[PAGERANK_LIST, TWODRANK_LIST])
    p_global.add_argument("--reference", default=None,
                          help="external reference list (one name per line)")
    p_global.add_argument("--women", action="store_true",
                          help="also emit the female-only ranking")
    p_global.add_argument("--output-dir", default=None)
    _add_param_flags(p_global)
    p_global.set_defaults(func=cmd_global)

    p_culture = sub.add_parser("culture", help="build and rank the culture network")
    p_culture.add_argument("--config", required=True)
    p_culture.add_argument("--algorithm", default=PAGERANK_LIST,
                           choices=[PAGERANK_LIST, TWODRANK_LIST])
    p_culture.add_argument("--before-century", dest="before_century", type=int,
                           default=None,
                           help="only persons born strictly before this century")
    p_culture.add_argument("--output-dir", default=None)
    _add_param_flags(p_culture)
    p_culture.set_defaults(func=cmd_culture)

    p_check = sub.add_parser("selfcheck", help="run the bundled oracle suite")
    p_check.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EdgeListError, cache.CacheFormatError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except ConvergenceError as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
