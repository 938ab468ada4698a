"""The four workloads and the operations each one times.

An operation is one ``gmrank`` CLI command or one library stage; it fails on
a non-zero exit code, an exception or a failed correctness check.  This
module imports only the standard library, so the worker can time
``import gmrank`` before anything else loads numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    "corpus-cold": "the full pipeline as a user first runs it: parse, rank, "
                   "cache writes, registry loads, aggregation and culture ranking",
    "corpus-warm": "both top-people passes on a cache filled in set-up: rank does "
                   "no work, parsing dominates",
    "rank-slowmix": "library build, PageRank, CheiRank and ordering on a graph with "
                    "trapped 2-cycles, so power iteration mixes slowly",
    "toplists-aggregate": "global and culture commands on generated top lists: "
                          "registry, aggregate, cultures and tableio without parsing",
}

EDITIONS = (
    "EN", "NL", "DE", "FR", "ES", "IT", "PT", "EL", "DA", "SV", "PL", "HU",
    "RU", "HE", "TR", "AR", "FA", "HI", "MS", "TH", "VI", "ZH", "KO", "JA",
)
ALGORITHMS = ("pagerank", "2drank")
TOP_N = 100
BEFORE_CENTURY = 19
ALPHA = 0.85

GLOBAL_OUTPUTS = (
    "global_ranking.csv", "global_ranking_female.csv", "culture_top10.csv",
    "spatial_distribution.csv", "temporal_distribution.csv",
    "locality_ratio.csv", "gender_distribution.csv", "language_counts.csv",
    "overlap_report.json",
)


@dataclass(frozen=True)
class Op:
    """One CLI command and the files (relative to its output dir) it writes."""

    command: str                 # "top-people" | "global" | "culture"
    algorithm: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    before: int | None = None    # culture --before-century

    @property
    def name(self) -> str:
        suffix = f"_before{self.before}" if self.before is not None else ""
        return f"{self.command}:{self.algorithm}{suffix}"


def top_people(algorithm: str, config: Path, out: Path, cache: Path) -> Op:
    return Op("top-people", algorithm,
              ("top-people", "--config", str(config), "--all",
               "--algorithm", algorithm, "--output-dir", str(out),
               "--cache-dir", str(cache)),
              tuple(f"toplists/{code}_{algorithm}.csv" for code in EDITIONS))


def global_ranking(algorithm: str, config: Path, out: Path,
                   reference: Path) -> Op:
    return Op("global", algorithm,
              ("global", "--config", str(config), "--algorithm", algorithm,
               "--women", "--reference", str(reference),
               "--output-dir", str(out)),
              tuple(f"{algorithm}_{name}" for name in GLOBAL_OUTPUTS))


def culture(algorithm: str, before: int | None, config: Path,
            out: Path) -> Op:
    suffix = f"_before{before}" if before is not None else ""
    argv = ("culture", "--config", str(config), "--algorithm", algorithm,
            "--output-dir", str(out))
    if before is not None:
        argv += ("--before-century", str(before))
    return Op("culture", algorithm, argv,
              tuple(f"{algorithm}_culture_{kind}{suffix}.csv"
                    for kind in ("network", "ranks", "matrix")),
              before)


def aggregate_ops(config: Path, out: Path, reference: Path) -> list[Op]:
    ops = []
    for algorithm in ALGORITHMS:
        ops.append(global_ranking(algorithm, config, out, reference))
        ops.append(culture(algorithm, None, config, out))
        ops.append(culture(algorithm, BEFORE_CENTURY, config, out))
    return ops


def cli_ops(workload: str, inputs: Path, out: Path, cache: Path) -> list[Op]:
    """Commands of one iteration of a CLI workload, in order."""
    config, reference = inputs / "pipeline.ini", inputs / "reference.txt"
    ranking = [top_people(a, config, out, cache) for a in ALGORITHMS]
    if workload == "corpus-cold":
        return ranking + aggregate_ops(config, out, reference)
    if workload == "corpus-warm":
        return ranking
    if workload == "toplists-aggregate":
        return aggregate_ops(config, out, reference)
    raise ValueError(f"{workload} is not a CLI workload")
