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
from pathlib import Path

from . import aggregate, cache, cultures, selfcheck, tableio
from .graph import (INTEGER_IDS, STRING_LABELS, DirectedGraph, EdgeListError,
                    load_edge_list)
from .rank import (CHEIRANK, PAGERANK, ConvergenceError, GoogleParams,
                   cheirank, pagerank, rank_indices, two_d_rank)
from .registry import (EDITION_CODES, PAGERANK_LIST, TWODRANK_LIST,
                       PersonRegistry, default_culture_map, load_culture_map,
                       load_persons, select_top_people)

log = logging.getLogger("gmrank")

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CACHE_ENV = "GMRANK_CACHE_DIR"

# every text file a user hands in is UTF-8; a leading byte-order mark is dropped
TEXT_ENCODING = "utf-8-sig"


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


@dataclass
class PipelineConfig:
    alpha: float = GoogleParams.alpha
    tol: float = GoogleParams.tol
    max_iter: int = GoogleParams.max_iter
    top_n: int = 100
    editions: dict[str, Path] = field(default_factory=dict)    # config order
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
        for code, path in self.editions.items():
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


_SCALAR_KEYS = {
    "alpha": float, "tol": float, "max_iter": int, "top_n": int,
    "before_century": int,
}
_PATH_KEYS = {
    "persons": "persons_path", "culture_map": "culture_map_path",
    "output_dir": "output_dir", "cache_dir": "cache_dir",
}


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
    lines = path.read_text(encoding=TEXT_ENCODING).splitlines()
    for line_no, raw in enumerate(lines, start=1):
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
            code = key.upper()
            if code in config.editions:
                raise ConfigError(
                    f"config line {line_no}: duplicate edition {code}")
            config.editions[code] = base / value
        elif key in _SCALAR_KEYS:
            try:
                setattr(config, key, _SCALAR_KEYS[key](value))
            except ValueError:
                raise ConfigError(
                    f"config line {line_no}: bad value for {key}: {value!r}"
                ) from None
        elif key in _PATH_KEYS:
            setattr(config, _PATH_KEYS[key], base / value)
        else:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
    return config


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> None:
    for key in (*_SCALAR_KEYS, "output_dir", "cache_dir"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, _SCALAR_KEYS.get(key, Path)(value))
    env_cache = os.environ.get(CACHE_ENV)
    if env_cache:
        config.cache_dir = Path(env_cache)


def _load_registry(config: PipelineConfig) -> PersonRegistry:
    """The configured persons file as a registry.

    With a cache directory, the validated columns are read from its
    ``.gmrp`` artifact when it holds them and written there otherwise.
    """
    if config.persons_path is None:
        raise ConfigError("no persons file configured")
    culture_map = default_culture_map()
    if config.culture_map_path is not None:
        with open(config.culture_map_path, encoding=TEXT_ENCODING) as f:
            culture_map = load_culture_map(f)
    artifact = None
    if config.cache_dir is not None:
        artifact = cache.artifact_path(
            config.cache_dir, "gmrp", cache.content_hash(config.persons_path),
            "persons", cache.PERSONS_VERSION)

    def parse() -> PersonRegistry:
        with open(config.persons_path, encoding=TEXT_ENCODING) as f:
            return load_persons(f, culture_map)

    return _cached(
        artifact, "registry", "re-parsing",
        lambda f: PersonRegistry(*cache.read_persons(f), culture_map),
        parse,
        lambda f, registry: cache.write_persons(f, *registry.columns()))


def _cached(path: Path | None, what: str, redo: str, read, build, write):
    """``read`` of the cache file at ``path``, or ``build()`` stored there.

    With no path, only builds.  A hit logs ``what``; a file that ``read``
    rejects with a ValueError, such as :class:`cache.CacheFormatError`, is
    a miss, whose warning names the work it costs, ``redo``.  After a miss,
    ``write(stream, value)`` stores the built value atomically.
    """
    if path is None:
        return build()
    if path.is_file():
        try:
            with open(path, "rb") as f:
                value = read(f)
        except ValueError as exc:
            log.warning("unusable cache file %s (%s), %s", path, exc, redo)
        else:
            log.info("cache hit: %s (%s)", path.name, what)
            return value
    value = build()
    with tableio.atomic_write(path, binary=True) as f:
        write(f, value)
    return value


def _rank_edge_list(graph_path: Path, algorithm: str, config: PipelineConfig,
                    label_mode: str, drop_self_loops: bool,
                    empty_error: str) -> tuple[DirectedGraph, dict, dict]:
    """Parse an edge list and rank it by pagerank, cheirank or 2drank.

    With a cache directory, the parsed graph and each vector are read from
    it when it holds them and written there otherwise, so a warm run parses
    nothing; the edge-list file is hashed at most once.
    Returns the graph and two dicts keyed by algorithm: its RankVectors,
    and its orderings (a RankIndex per vector, plus the TwoDRankResult
    for 2drank).
    """
    params = config.params()
    parse_inputs = None
    if config.cache_dir is not None:
        parse_inputs = (cache.content_hash(graph_path), label_mode,
                        drop_self_loops)

    def artifact(suffix: str, *inputs) -> Path | None:
        if parse_inputs is None:
            return None
        return cache.artifact_path(config.cache_dir, suffix, *parse_inputs,
                                   *inputs)

    def parse() -> DirectedGraph:
        try:
            with open(graph_path, encoding=TEXT_ENCODING) as f:
                return load_edge_list(f, drop_self_loops=drop_self_loops,
                                      label_mode=label_mode)
        except (EdgeListError, UnicodeDecodeError) as exc:
            raise EdgeListError(f"{graph_path}: {exc}") from exc

    g = _cached(artifact("gmrg"), "graph", "re-parsing", cache.read_graph,
                parse, cache.write_graph)
    if g.node_count == 0:
        raise EdgeListError(empty_error)
    vectors, ranks = {}, {}
    for name in ((PAGERANK, CHEIRANK) if algorithm == TWODRANK_LIST
                 else (algorithm,)):
        vector = vectors[name] = _cached(
            artifact("gmrk", name, params.alpha, params.tol), name,
            "recomputing",
            lambda f: cache.read_vector(f, name, g.node_count, params),
            lambda: (pagerank if name == PAGERANK else cheirank)(g, params),
            lambda f, v: cache.write_vector(f, v, params))
        ranks[name] = rank_indices(vector)
    if algorithm == TWODRANK_LIST:
        ranks[algorithm] = two_d_rank(ranks[PAGERANK], ranks[CHEIRANK])
    return g, vectors, ranks


# -- subcommands --------------------------------------------------------------

def cmd_rank(args: argparse.Namespace) -> int:
    config = PipelineConfig()
    _apply_overrides(config, args)
    algorithm = args.algorithm
    g, vectors, ranks = _rank_edge_list(
        Path(args.graph), algorithm, config,
        STRING_LABELS if args.labels else INTEGER_IDS,
        not args.keep_self_loops, "graph has no nodes")
    out_path = Path(args.out)
    with tableio.atomic_write(out_path) as f:
        if algorithm == TWODRANK_LIST:
            tableio.write_two_d_rank_csv(f, ranks[PAGERANK], ranks[CHEIRANK],
                                         ranks[algorithm], g.labels)
        else:
            tableio.write_rank_csv(f, vectors[algorithm], ranks[algorithm],
                                   g.labels)
    log.info("wrote %s", out_path)
    return EXIT_OK


def _toplist_path(config: PipelineConfig, edition: str, algorithm: str) -> Path:
    return config.output_dir / "toplists" / f"{edition}_{algorithm}.csv"


def _extract_toplist(config: PipelineConfig, registry: PersonRegistry,
                     edition: str, algorithm: str) -> None:
    g, _, ranks = _rank_edge_list(
        config.editions[edition], algorithm, config, STRING_LABELS,
        drop_self_loops=True,
        empty_error=f"edition {edition}: graph has no labeled nodes")
    toplist = select_top_people(ranks[algorithm], g.labels, registry, edition,
                                algorithm, n=config.top_n)
    if not toplist.entries:
        log.warning("edition %s: no registered persons matched", edition)
    path = _toplist_path(config, edition, algorithm)
    with tableio.atomic_write(path) as f:
        tableio.write_toplist_csv(f, toplist, registry)
    log.info("wrote %s (%d persons)", path, len(toplist))


def _configured(args: argparse.Namespace
                ) -> tuple[PipelineConfig, PersonRegistry]:
    """The validated config, flags applied, and its persons registry."""
    config = load_config(args.config)
    _apply_overrides(config, args)
    config.validate()
    return config, _load_registry(config)


def cmd_top_people(args: argparse.Namespace) -> int:
    config, registry = _configured(args)
    if args.all:
        codes = list(config.editions)
    elif not args.edition:
        raise ConfigError("pass --edition CODE or --all")
    else:
        codes = [args.edition.upper()]
        if codes[0] not in config.editions:
            raise ConfigError(f"edition {codes[0]!r} is not configured")
    for code in codes:
        _extract_toplist(config, registry, code, args.algorithm)
    return EXIT_OK


def _read_toplists(config: PipelineConfig, registry: PersonRegistry,
                   algorithm: str) -> list:
    """Every configured edition's top list; each person must be registered."""
    toplists = []
    for code in config.editions:
        path = _toplist_path(config, code, algorithm)
        if not path.is_file():
            raise ConfigError(
                f"missing top list for edition {code}: {path} "
                f"(run 'gmrank top-people' first)")
        with open(path, encoding=TEXT_ENCODING) as f:
            try:
                toplist = tableio.read_toplist_csv(f, code, algorithm)
            except ValueError as exc:
                raise ValueError(f"top list {path}: {exc}") from None
        for person_id, _ in toplist.entries:
            if person_id not in registry:
                raise ConfigError(
                    f"top list for edition {toplist.edition} ({path}): "
                    f"person {person_id!r} is not in the persons file")
        toplists.append(toplist)
    return toplists


def cmd_global(args: argparse.Namespace) -> int:
    config, registry = _configured(args)
    algorithm = args.algorithm
    toplists = _read_toplists(config, registry, algorithm)
    if args.reference:      # read before any output, so a bad one writes none
        with open(args.reference, encoding=TEXT_ENCODING) as f:
            reference = aggregate.load_reference_list(f)
    out = config.output_dir

    entries = aggregate.global_ranking(toplists)
    top100 = entries[:100]
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

    for name, tabulate in (("spatial", aggregate.spatial_distribution),
                           ("temporal", aggregate.temporal_distribution)):
        table = tabulate(toplists, registry)
        with tableio.atomic_write(
                out / f"{algorithm}_{name}_distribution.csv") as f:
            tableio.write_distribution_csv(f, [
                table, aggregate.column_normalize(table),
                aggregate.edition_average(table)])

    locality = aggregate.locality_ratio(toplists, registry)
    with tableio.atomic_write(out / f"{algorithm}_locality_ratio.csv") as f:
        tableio.write_locality_csv(f, [locality])

    gender = aggregate.gender_distribution(toplists, registry)
    with tableio.atomic_write(out / f"{algorithm}_gender_distribution.csv") as f:
        tableio.write_gender_csv(f, gender)

    counts = aggregate.language_representation(registry, toplists, top100)
    with tableio.atomic_write(out / f"{algorithm}_language_counts.csv") as f:
        tableio.write_language_counts_csv(f, counts)

    if args.reference:
        report = {
            "algorithm": algorithm,
            "reference": Path(args.reference).name,
            "reference_size": len(set(reference)),
            "list_size": len(top100),
            "overlap": aggregate.overlap(
                [e.person_id for e in top100], reference),
        }
        with tableio.atomic_write(out / f"{algorithm}_overlap_report.json") as f:
            tableio.write_overlap_json(f, report)

    log.info("aggregate outputs written to %s", out)
    return EXIT_OK


def cmd_culture(args: argparse.Namespace) -> int:
    config, registry = _configured(args)
    algorithm = args.algorithm
    toplists = _read_toplists(config, registry, algorithm)

    weights = cultures.build_culture_network(
        toplists, registry, before_century=config.before_century)
    ranks = cultures.culture_ranks(weights, config.alpha)

    suffix = (f"_before{config.before_century}"
              if config.before_century is not None else "")
    out = config.output_dir
    with tableio.atomic_write(
            out / f"{algorithm}_culture_network{suffix}.csv") as f:
        tableio.write_culture_network_csv(f, weights)
    with tableio.atomic_write(
            out / f"{algorithm}_culture_ranks{suffix}.csv") as f:
        tableio.write_culture_ranks_csv(f, ranks)
    with tableio.atomic_write(
            out / f"{algorithm}_culture_matrix{suffix}.csv") as f:
        tableio.write_culture_matrix_csv(f, ranks)
    log.info("culture outputs written to %s", out)
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = selfcheck.run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFCHECK


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmrank",
        description="Google-matrix ranking of directed hyperlink networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank one edge-list graph")
    p_rank.add_argument("graph", help="edge-list file")
    p_rank.add_argument("--algorithm", default=PAGERANK,
                        choices=[PAGERANK, CHEIRANK, TWODRANK_LIST])
    p_rank.add_argument("--out", required=True, help="output CSV path")
    p_rank.add_argument("--labels", action="store_true",
                        help="treat tokens as string labels, not integer ids")
    p_rank.add_argument("--keep-self-loops", action="store_true")
    p_rank.add_argument("--cache-dir", default=None)
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
    p_global.set_defaults(func=cmd_global)

    p_culture = sub.add_parser("culture", help="build and rank the culture network")
    p_culture.add_argument("--config", required=True)
    p_culture.add_argument("--algorithm", default=PAGERANK_LIST,
                           choices=[PAGERANK_LIST, TWODRANK_LIST])
    p_culture.add_argument("--before-century", dest="before_century", type=int,
                           default=None,
                           help="only persons born strictly before this century")
    p_culture.add_argument("--output-dir", default=None)
    p_culture.set_defaults(func=cmd_culture)

    # global reads no iteration parameter, culture only alpha
    for p in (p_rank, p_top, p_culture):
        p.add_argument("--alpha", type=float, default=None,
                       help=f"damping factor (default {GoogleParams.alpha})")
    for p in (p_rank, p_top):
        p.add_argument("--tol", type=float, default=None,
                       help=f"L1 convergence tolerance (default {GoogleParams.tol})")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                       help=f"iteration cap (default {GoogleParams.max_iter})")

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
    except (ValueError, OSError) as exc:   # ConfigError, EdgeListError, ...
        log.error("%s", exc)
        return EXIT_INPUT
    except MemoryError as exc:   # an allocation the estimate did not foresee
        log.error("out of memory%s", f": {exc}" if str(exc) else "")
        return EXIT_INPUT
    except ConvergenceError as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
