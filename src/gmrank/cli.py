"""Command-line pipeline: rank graphs, extract top people, aggregate, rank cultures.

Subcommands: ``rank``, ``top-people``, ``global``, ``culture``, ``selfcheck``.
Exit codes are a stable contract: 0 success, 1 self-check failure, 2 input
error, 3 numeric (convergence) error; an input error in a file's content
starts with the file's path.  Identical inputs and configuration produce
byte-identical outputs.  A command computes all of its outputs before
:func:`_write_outputs` writes them, so a run that fails writes none.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
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

# a top list's path relative to the output directory, by edition and algorithm
TOPLIST_NAME = "toplists/{}_{}.csv"

# every text file a user hands in is UTF-8; a leading byte-order mark is dropped
TEXT_ENCODING = "utf-8-sig"


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


@contextmanager
def _open_input(path: str | Path):
    """A user text file opened as :data:`TEXT_ENCODING`.  A ValueError raised
    while it is open is raised again, of its class, with ``f"{path}: "``
    before its message; a UnicodeDecodeError, which takes none, as a
    ValueError."""
    with open(path, encoding=TEXT_ENCODING) as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except ValueError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


@dataclass
class PipelineConfig:
    alpha: float = GoogleParams.alpha
    tol: float = GoogleParams.tol
    max_iter: int = GoogleParams.max_iter
    top_n: int = 100
    editions: dict[str, Path] = field(default_factory=dict)    # config order
    persons: Path | None = None
    culture_map: Path | None = None
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
        if self.persons is not None and not self.persons.is_file():
            raise ConfigError(f"persons file not found: {self.persons}")
        if self.culture_map is not None and not self.culture_map.is_file():
            raise ConfigError(f"culture map file not found: {self.culture_map}")


# every flat config key, each the name of its PipelineConfig field and of its
# flag's dest, with the type its value is parsed as
_KEYS = {"alpha": float, "tol": float, "max_iter": int, "top_n": int,
         "before_century": int, "persons": Path, "culture_map": Path,
         "output_dir": Path, "cache_dir": Path}


def load_config(path: str | Path) -> PipelineConfig:
    """Flat ``key = value`` lines plus an ``[editions]`` section of CODE = path.

    Relative paths are resolved against the config file's directory.  Each
    flat key, like each edition code, may appear once.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    base = path.parent
    config = PipelineConfig()
    section, seen = None, set()
    with _open_input(path) as f:
        for line_no, raw in enumerate(f.read().splitlines(), start=1):
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
                if code not in EDITION_CODES:
                    raise ConfigError(f"config line {line_no}: "
                                      f"unknown edition code {code!r}")
                if code in config.editions:
                    raise ConfigError(
                        f"config line {line_no}: duplicate edition {code}")
                config.editions[code] = base / value
            elif key not in _KEYS:
                raise ConfigError(f"config line {line_no}: unknown key {key!r}")
            elif key in seen:
                raise ConfigError(f"config line {line_no}: duplicate key {key!r}")
            else:
                seen.add(key)
                kind = _KEYS[key]
                try:
                    setattr(config, key,
                            base / value if kind is Path else kind(value))
                except ValueError:
                    raise ConfigError(
                        f"config line {line_no}: bad value for {key}: {value!r}"
                    ) from None
    return config


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> None:
    for key, kind in _KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, kind(value))
    env_cache = os.environ.get(CACHE_ENV)
    if env_cache:
        config.cache_dir = Path(env_cache)


def _load_registry(config: PipelineConfig,
                   editions: tuple[str, ...] = ()) -> PersonRegistry:
    """The configured persons file as a registry.

    With a cache directory, the validated columns are read from its
    ``.gmrp`` artifact when it holds them and written there otherwise.
    """
    if config.persons is None:
        raise ConfigError("no persons file configured")
    culture_map = default_culture_map()
    if config.culture_map is not None:
        with _open_input(config.culture_map) as f:
            culture_map = load_culture_map(f)
    artifact = None
    if config.cache_dir is not None:
        artifact = cache.artifact_path(
            config.cache_dir, "gmrp", cache.content_hash(config.persons))

    def read(f) -> PersonRegistry:
        registry = PersonRegistry(*cache.read_persons(f), culture_map)
        for code in editions:       # so a shared title is a miss
            registry.title_index(code)
        return registry

    def parse() -> PersonRegistry:
        with _open_input(config.persons) as f:
            return load_persons(f, culture_map)

    return _cached(
        artifact, "registry", "re-parsing", read, parse,
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
                    label_mode: str, drop_self_loops: bool
                    ) -> tuple[DirectedGraph, dict, dict]:
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
        with _open_input(graph_path) as f:
            return load_edge_list(f, drop_self_loops=drop_self_loops,
                                  label_mode=label_mode)

    g = _cached(artifact("gmrg"), "graph", "re-parsing", cache.read_graph,
                parse, cache.write_graph)
    if g.node_count == 0:
        raise EdgeListError(f"{graph_path}: graph has no nodes")
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
        not args.keep_self_loops)
    if algorithm == TWODRANK_LIST:
        row = (tableio.write_two_d_rank_csv, ranks[PAGERANK], ranks[CHEIRANK])
    else:
        row = (tableio.write_rank_csv, vectors[algorithm])
    out = Path(args.out)
    _write_outputs(out.parent, [(out.name, *row, ranks[algorithm], g.labels)])
    return EXIT_OK


def _extract_toplist(config: PipelineConfig, registry: PersonRegistry,
                     edition: str, algorithm: str) -> tuple:
    """``edition``'s top-list row, which holds no graph and no rank vector."""
    g, _, ranks = _rank_edge_list(
        config.editions[edition], algorithm, config, STRING_LABELS,
        drop_self_loops=True)
    toplist = select_top_people(ranks[algorithm], g.labels, registry, edition,
                                algorithm, n=config.top_n)
    return (TOPLIST_NAME.format(edition, algorithm), tableio.write_toplist_csv,
            toplist, registry)


def _configured(args: argparse.Namespace, titled: bool = False
                ) -> tuple[PipelineConfig, PersonRegistry]:
    """The validated config, flags applied, and its persons registry."""
    config = load_config(args.config)
    _apply_overrides(config, args)
    config.validate()
    editions = tuple(config.editions) if titled else ()
    return config, _load_registry(config, editions)


def cmd_top_people(args: argparse.Namespace) -> int:
    config, registry = _configured(args, titled=True)
    if not (args.all or args.edition):
        raise ConfigError("pass --edition CODE or --all")
    codes = list(config.editions) if args.all else [args.edition.upper()]
    if not set(codes) <= config.editions.keys():
        raise ConfigError(f"edition {codes[0]!r} is not configured")
    _write_outputs(config.output_dir, [
        _extract_toplist(config, registry, code, args.algorithm)
        for code in codes])
    return EXIT_OK


def _read_toplists(config: PipelineConfig, registry: PersonRegistry,
                   algorithm: str) -> list:
    """Every configured edition's top list; each person must be registered."""
    toplists = []
    for code in config.editions:
        path = config.output_dir / TOPLIST_NAME.format(code, algorithm)
        if not path.is_file():
            raise ConfigError(
                f"missing top list for edition {code}: {path} "
                f"(run 'gmrank top-people' first)")
        with _open_input(path) as f:
            toplist = tableio.read_toplist_csv(f, code, algorithm)
            for person_id, _ in toplist.entries:
                if person_id not in registry:
                    raise ConfigError(
                        f"edition {code}: person {person_id!r} is not in the "
                        "persons file (run 'gmrank top-people' again)")
        toplists.append(toplist)
    return toplists


def _write_outputs(out_dir: Path, rows: list) -> None:
    """Write each ``(name, writer, *values)`` row as ``writer(stream, *values)``
    into ``out_dir/name``, atomically, and log it; callers compute all first."""
    for name, writer, *values in rows:
        path = out_dir / name
        with tableio.atomic_write(path) as f:
            writer(f, *values)
        log.info("wrote %s", path)


def cmd_global(args: argparse.Namespace) -> int:
    config, registry = _configured(args)
    algorithm = args.algorithm
    toplists = _read_toplists(config, registry, algorithm)
    if args.reference:      # read before any output, so a bad one writes none
        with _open_input(args.reference) as f:
            reference = aggregate.load_reference_list(f)

    entries = aggregate.global_ranking(toplists)
    top100 = entries[:100]
    classes = aggregate.classify_figures(entries)
    rows = [(f"{algorithm}_global_ranking.csv", tableio.write_global_csv,
             entries, classes, registry)]
    if args.women:
        women = aggregate.filter_by_gender(entries, registry, "female")
        rows.append((f"{algorithm}_global_ranking_female.csv",
                     tableio.write_global_csv, women, classes, registry))
    rows.append((f"{algorithm}_culture_top10.csv", tableio.write_culture_slices_csv,
                 aggregate.per_culture_top(entries, registry, n=10)))
    for name, tabulate in (("spatial", aggregate.spatial_distribution),
                           ("temporal", aggregate.temporal_distribution)):
        table = tabulate(toplists, registry)
        rows.append((f"{algorithm}_{name}_distribution.csv",
                     tableio.write_distribution_csv,
                     [table, aggregate.column_normalize(table),
                      aggregate.edition_average(table)]))
    rows += [
        (f"{algorithm}_locality_ratio.csv", tableio.write_locality_csv,
         [aggregate.locality_ratio(toplists, registry)]),
        (f"{algorithm}_gender_distribution.csv", tableio.write_gender_csv,
         aggregate.gender_distribution(toplists, registry)),
        (f"{algorithm}_language_counts.csv", tableio.write_language_counts_csv,
         aggregate.language_representation(registry, toplists, top100))]
    if args.reference:
        rows.append((f"{algorithm}_overlap_report.json",
                     tableio.write_overlap_json, {
            "algorithm": algorithm,
            "reference": Path(args.reference).name,
            "reference_size": len(set(reference)),
            "list_size": len(top100),
            "overlap": aggregate.overlap(
                [e.person_id for e in top100], reference),
        }))
    _write_outputs(config.output_dir, rows)
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
    _write_outputs(config.output_dir, [
        (f"{algorithm}_culture_network{suffix}.csv",
         tableio.write_culture_network_csv, weights),
        (f"{algorithm}_culture_ranks{suffix}.csv",
         tableio.write_culture_ranks_csv, ranks),
        (f"{algorithm}_culture_matrix{suffix}.csv",
         tableio.write_culture_matrix_csv, ranks)])
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
    p_rank.set_defaults(func=cmd_rank)

    p_top = sub.add_parser("top-people", help="extract a per-edition top list")
    p_top.add_argument("--edition")
    p_top.add_argument("--all", action="store_true",
                       help="process every configured edition")
    p_top.add_argument("--top-n", type=int)
    p_top.set_defaults(func=cmd_top_people)

    p_global = sub.add_parser("global", help="aggregate top lists globally")
    p_global.add_argument("--reference",
                          help="external reference list (one name per line)")
    p_global.add_argument("--women", action="store_true",
                          help="also emit the female-only ranking")
    p_global.set_defaults(func=cmd_global)

    p_culture = sub.add_parser("culture", help="build and rank the culture network")
    p_culture.add_argument("--before-century", type=int,
                           help="only persons born strictly before this century")
    p_culture.set_defaults(func=cmd_culture)

    for p in (p_top, p_global, p_culture):
        p.add_argument("--config", required=True)
        p.add_argument("--algorithm", default=PAGERANK_LIST,
                       choices=[PAGERANK_LIST, TWODRANK_LIST])
        p.add_argument("--output-dir")
    # global reads no iteration parameter, culture only alpha
    for p in (p_rank, p_top, p_culture):
        p.add_argument("--alpha", type=float,
                       help=f"damping factor (default {GoogleParams.alpha})")
    for p in (p_rank, p_top):
        p.add_argument("--tol", type=float,
                       help=f"L1 convergence tolerance (default {GoogleParams.tol})")
        p.add_argument("--max-iter", type=int,
                       help=f"iteration cap (default {GoogleParams.max_iter})")
        p.add_argument("--cache-dir")

    p_check = sub.add_parser("selfcheck", help="run the bundled oracle suite")
    p_check.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
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
