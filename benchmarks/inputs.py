"""Seeded synthetic inputs for the four benchmark workloads.

Everything here is a pure function of ``(seed, scale)``: the same pair
writes byte-identical files.  Nothing imports gmrank, so the generated
inputs do not depend on the code under test.

Shapes the generators reproduce, because the pipeline's cost depends on them:

* edition graphs are label-mode edge lists whose sizes fall geometrically
  over the 24 editions, with power-law in-degree, about 10% dangling nodes
  and a trapped set of 2-cycles that receive links but send none back.  A
  trapped set is an invariant subspace of the Google matrix, so |lambda_2|
  = alpha and power iteration needs about log(tol)/log(alpha) sweeps, as on
  real Wikipedia graphs;
* the person registry gives every person a title in about 60% of the
  editions, and person articles attract more links than other articles, more
  so in their own culture's edition, so top lists lean to own-culture figures;
* the library graph of ``rank-slowmix`` has the same trapped structure at one
  larger size, handed over as raw int64 arrays with duplicate pairs.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from workloads import ALGORITHMS, EDITIONS, TOP_N

WORLD = "WR"

# Birth countries per culture.  Each pair agrees with gmrank's shipped
# country-to-language map; the benchmark's tests check that it still does.
COUNTRIES = {
    "EN": ("US", "UK", "AU"), "NL": ("NL", "BE"), "DE": ("DE", "AT"),
    "FR": ("FR",), "ES": ("ES", "MX", "AR"), "IT": ("IT",), "PT": ("BR", "PT"),
    "EL": ("GR",), "DA": ("DK",), "SV": ("SE",), "PL": ("PL",), "HU": ("HU",),
    "RU": ("RU", "BY"), "HE": ("IL",), "TR": ("TR",), "AR": ("EG", "SA"),
    "FA": ("IR",), "HI": ("IN",), "MS": ("MY",), "TH": ("TH",), "VI": ("VN",),
    "ZH": ("CN", "TW"), "KO": ("KO",), "JA": ("JP",),
    WORLD: ("CZ", "NO", "UA", "ZA", "XX"),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes at scale 1; ``scaled`` shrinks them for quick test runs."""

    corpus_first_edges: int = 30_000   # edges of the largest edition
    corpus_ratio: float = 0.87         # edition k has first * ratio**k edges
    corpus_out_degree: float = 6.0     # mean out-degree of linking nodes
    persons: int = 3_000
    slowmix_nodes: int = 200_000
    slowmix_edges: int = 1_000_000

    def scaled(self, scale: float) -> "Sizes":
        return Sizes(
            corpus_first_edges=max(1_500, int(self.corpus_first_edges * scale)),
            corpus_ratio=self.corpus_ratio,
            corpus_out_degree=self.corpus_out_degree,
            persons=max(2_000, int(self.persons * scale)),
            slowmix_nodes=max(2_000, int(self.slowmix_nodes * scale)),
            slowmix_edges=max(10_000, int(self.slowmix_edges * scale)))


DANGLING_SHARE = 0.10
TRAPPED_SHARE = 0.02       # nodes in 2-cycles, as a share of all nodes
ZIPF_EXPONENT = 0.9        # target weight of the k-th node ~ k**-0.9


def century_of(year: int) -> int:
    """Signed century with no year 0 (years 1..100 are century 1)."""
    return (year + 99) // 100 if year > 0 else -((-year + 99) // 100)


# -- graphs ----------------------------------------------------------------

@dataclass
class GraphShape:
    nodes: int
    edges: int               # distinct pairs
    dangling: int
    trapped: int


def _power_law_edges(rng: np.random.Generator, n: int, edges: int,
                     boost: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (src, tgt) pairs plus the trapped node ids; may repeat pairs.

    Dangling nodes send nothing.  Trapped nodes come in pairs (u, v) with
    u -> v and v -> u as their only out-links; every node can be a target.
    """
    perm = rng.permutation(n)
    n_trapped = 2 * max(1, int(TRAPPED_SHARE * n) // 2)
    n_dangling = max(1, int(DANGLING_SHARE * n))
    trapped = perm[:n_trapped]
    linking = perm[n_trapped + n_dangling:]

    weights = np.empty(n)
    weights[rng.permutation(n)] = np.arange(1, n + 1, dtype=float) ** -ZIPF_EXPONENT
    if boost is not None:
        weights *= boost
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    count = max(edges - n_trapped, linking.size)
    src = linking[rng.integers(0, linking.size, size=count)]
    tgt = np.minimum(np.searchsorted(cdf, rng.random(count)), n - 1)
    # every linking node keeps at least one out-link
    src[:linking.size] = linking
    keep = src != tgt
    src, tgt = src[keep], tgt[keep]
    pairs = trapped.reshape(-1, 2)
    src = np.concatenate([src, pairs[:, 0], pairs[:, 1]])
    tgt = np.concatenate([tgt, pairs[:, 1], pairs[:, 0]])
    return src.astype(np.int64), tgt.astype(np.int64), np.sort(trapped)


def slowmix_graph(seed: int, sizes: Sizes) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray, GraphShape]:
    """Library-workload graph: raw pairs with duplicates, and its shape."""
    rng = np.random.default_rng([seed, 3])
    n = sizes.slowmix_nodes
    src, tgt, trapped = _power_law_edges(rng, n, sizes.slowmix_edges)
    distinct = np.unique(src * n + tgt).size
    dangling = n - np.unique(src).size
    return src, tgt, trapped, GraphShape(n, int(distinct), int(dangling),
                                         int(trapped.size))


# -- persons ---------------------------------------------------------------

@dataclass
class Person:
    person_id: str
    country: str
    culture: str
    year: int | None
    gender: str
    fame: float
    titled: tuple[str, ...]      # editions with an article on this person

    def title(self, edition: str) -> str:
        return self.person_id if edition == "EN" else f"{self.person_id}_{edition.lower()}"


def make_persons(rng: np.random.Generator, count: int) -> list[Person]:
    cultures = EDITIONS + (WORLD,)
    # larger editions' cultures have more notable people; WR is a big bucket
    share = np.array([0.87 ** k for k in range(len(EDITIONS))] + [1.2])
    culture_idx = rng.choice(len(cultures), size=count, p=share / share.sum())
    fame = rng.pareto(1.2, size=count) + 1.0
    era = rng.random(count)
    years = np.where(era < 0.08, -rng.integers(1, 800, size=count),
                     np.where(era < 0.25, rng.integers(1, 1500, size=count),
                              rng.integers(1500, 2000, size=count)))
    unknown_year = rng.random(count) < 0.04
    gender_draw = rng.random(count)
    title_draw = rng.random((count, len(EDITIONS)))
    persons = []
    for i in range(count):
        culture = cultures[culture_idx[i]]
        countries = COUNTRIES[culture]
        titled = tuple(code for j, code in enumerate(EDITIONS)
                       if code == "EN" or title_draw[i, j] < (0.95 if code == culture else 0.58))
        persons.append(Person(
            person_id=f"Person_{i:06d}",
            country=countries[i % len(countries)],
            culture=culture,
            year=None if unknown_year[i] else int(years[i]),
            gender=("female" if gender_draw[i] < 0.16
                    else "unknown" if gender_draw[i] > 0.97 else "male"),
            fame=float(fame[i]),
            titled=titled))
    return persons


def write_persons(path: Path, persons: list[Person]) -> None:
    lines = ["\t".join(("person_id", "birth_country", "birth_year", "gender")
                       + EDITIONS)]
    for p in persons:
        titled = set(p.titled)
        lines.append("\t".join(
            (p.person_id, p.country, "" if p.year is None else str(p.year),
             p.gender)
            + tuple(p.title(code) if code in titled else "" for code in EDITIONS)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_reference(path: Path, rng: np.random.Generator,
                    persons: list[Person]) -> None:
    """100 names drawn by fame, so the overlap with a global top 100 is not empty."""
    fame = np.array([p.fame for p in persons])
    picks = rng.choice(len(persons), size=TOP_N, replace=False, p=fame / fame.sum())
    path.write_text("".join(f"{persons[i].person_id}\n" for i in sorted(picks)),
                    encoding="utf-8")


def write_config(root: Path) -> None:
    lines = ["alpha = 0.85", "tol = 1e-10", "max_iter = 1000", f"top_n = {TOP_N}",
             "persons = persons.tsv", "output_dir = out", "cache_dir = cache",
             "[editions]"]
    lines += [f"{code} = editions/{code.lower()}.edges" for code in EDITIONS]
    (root / "pipeline.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- workloads -------------------------------------------------------------

def corpus(root: Path, seed: int, sizes: Sizes) -> dict:
    """24 label-mode edition graphs, the registry, a reference list, a config."""
    rng = np.random.default_rng([seed, 1])
    persons = make_persons(rng, sizes.persons)
    (root / "editions").mkdir(parents=True, exist_ok=True)
    totals = {"nodes": 0, "edges": 0, "dangling": 0, "trapped": 0}
    fame = np.array([p.fame for p in persons])
    for k, code in enumerate(EDITIONS):
        edges = int(sizes.corpus_first_edges * sizes.corpus_ratio ** k)
        articles = max(200, int(edges / sizes.corpus_out_degree))
        # person articles of this edition, drawn by fame: enough for a full
        # top list, and otherwise at most 40% of the article count
        titled = [i for i, p in enumerate(persons) if code in p.titled]
        keys = rng.random(len(titled)) ** (1.0 / fame[titled])
        cap = max(int(1.5 * TOP_N), int(0.4 * articles))
        chosen = [titled[j] for j in np.argsort(-keys)[:cap]]
        n = articles + len(chosen)
        labels = [f"A{j}" for j in range(articles)]
        labels += [persons[i].title(code) for i in chosen]
        boost = np.ones(n)
        boost[articles:] = [4.0 * persons[i].fame ** 0.5
                            * (6.0 if persons[i].culture == code else 1.0)
                            for i in chosen]
        src, tgt, trapped = _power_law_edges(rng, n, edges, boost)
        key = np.unique(src * n + tgt)
        key = key[rng.permutation(key.size)]
        src, tgt = key // n, key % n
        text = "\n".join(f"{labels[s]} {labels[t]}"
                         for s, t in zip(src.tolist(), tgt.tolist()))
        (root / "editions" / f"{code.lower()}.edges").write_text(
            f"# edition {code}\n{text}\n", encoding="utf-8")
        totals["nodes"] += n
        totals["edges"] += int(key.size)
        totals["dangling"] += n - int(np.unique(src).size)
        totals["trapped"] += int(trapped.size)
    write_persons(root / "persons.tsv", persons)
    write_reference(root / "reference.txt", rng, persons)
    write_config(root)
    return {"editions": len(EDITIONS), **totals, "persons": len(persons),
            "toplist_entries": len(EDITIONS) * len(ALGORITHMS) * TOP_N}


def toplists(root: Path, seed: int, sizes: Sizes) -> dict:
    """Registry plus top-list CSVs written directly, as ``top-people`` would."""
    rng = np.random.default_rng([seed, 2])
    persons = make_persons(rng, sizes.persons)
    write_persons(root / "persons.tsv", persons)
    write_reference(root / "reference.txt", rng, persons)
    write_config(root)
    # global/culture never read edition graphs, but the config must name files
    (root / "editions").mkdir(parents=True, exist_ok=True)
    for code in EDITIONS:
        (root / "editions" / f"{code.lower()}.edges").write_text("a b\n")
    out = root / "out" / "toplists"
    out.mkdir(parents=True, exist_ok=True)
    fame = np.array([p.fame for p in persons])
    entries = 0
    for algorithm in ALGORITHMS:
        own_bias = 8.0 if algorithm == "pagerank" else 4.0
        for code in EDITIONS:
            titled = np.array([i for i, p in enumerate(persons) if code in p.titled])
            weight = fame[titled] * np.array(
                [own_bias if persons[i].culture == code else 1.0 for i in titled])
            # weighted sampling without replacement (Efraimidis-Spirakis keys)
            keys = rng.random(titled.size) ** (1.0 / weight)
            ranked = titled[np.argsort(-keys)[:TOP_N]]
            rows = ["edition,algorithm,person_id,title,rank,culture,country,century,gender"]
            for rank, i in enumerate(ranked.tolist(), start=1):
                p = persons[i]
                century = "" if p.year is None else str(century_of(p.year))
                rows.append(f"{code},{algorithm},{p.person_id},{p.title(code)},{rank},"
                            f"{p.culture},{p.country},{century},{p.gender}")
            (out / f"{code}_{algorithm}.csv").write_text("\n".join(rows) + "\n",
                                                         encoding="utf-8")
            entries += len(ranked)
    return {"editions": len(EDITIONS), "persons": len(persons),
            "toplist_entries": entries}


def slowmix(root: Path, seed: int, sizes: Sizes) -> dict:
    """Raw int64 edge arrays for the library workload."""
    src, tgt, trapped, shape = slowmix_graph(seed, sizes)
    root.mkdir(parents=True, exist_ok=True)
    np.save(root / "src.npy", src)
    np.save(root / "tgt.npy", tgt)
    np.save(root / "trapped.npy", trapped)
    return {"nodes": shape.nodes, "edge_pairs": int(src.size),
            "edges": shape.edges, "dangling": shape.dangling,
            "trapped": shape.trapped}


GENERATORS = {
    "corpus-cold": corpus,
    "corpus-warm": corpus,
    "rank-slowmix": slowmix,
    "toplists-aggregate": toplists,
}


def generate(workload: str, root: Path, seed: int, scale: float = 1.0) -> dict:
    """Write the inputs of ``workload`` under ``root``; returns their sizes."""
    root.mkdir(parents=True, exist_ok=True)
    sizes = Sizes().scaled(scale)
    stated = GENERATORS[workload](root, seed, sizes)
    (root / "sizes.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "scale": scale,
         "parameters": asdict(sizes), "stated": stated}, indent=2))
    return stated
