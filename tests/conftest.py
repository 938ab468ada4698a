"""Shared fixtures: small graphs and a synthetic 3-edition person corpus."""
from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from gmrank.graph import DirectedGraph
from gmrank.registry import PersonRegistry, TopList, load_persons

GOLDEN = Path(__file__).parent / "golden"

# deterministic attribute cycles for the synthetic corpus
_COUNTRIES = ("US", "UK", "FR", "DE", "CN", "UA", "IL", "EG", "BR", "RU")
_YEARS = (1769, 1820, -480, 1901, 1955, 800, 1600, -44, 1750, 1880,
          1920, 1480, 1066, 1990, 330, 1700, 1850, 1930, 1200, 1610)


def synthetic_person_rows(count: int = 40) -> list[dict]:
    rows = []
    for i in range(count):
        gender = "female" if i % 5 == 0 else ("unknown" if i % 11 == 10 else "male")
        rows.append({
            "person_id": f"Person {i:02d}",
            "birth_country": _COUNTRIES[i % len(_COUNTRIES)],
            "birth_year": _YEARS[i % len(_YEARS)],
            "gender": gender,
        })
    # one person with unknown birth year, one unknown country
    rows[7]["birth_year"] = None
    rows[13]["birth_country"] = "XX"
    return rows


def persons_tsv(rows: list[dict], editions: tuple[str, ...] = ("EN", "FR", "DE")) -> str:
    header = ["person_id", "birth_country", "birth_year", "gender", *editions]
    lines = ["\t".join(header)]
    for row in rows:
        year = row["birth_year"]
        titles = [row.get(code, row["person_id"] + (f" ({code})" if code != "EN" else ""))
                  for code in editions]
        lines.append("\t".join([
            row["person_id"], row["birth_country"],
            "" if year is None else str(year), row["gender"], *titles]))
    return "\n".join(lines) + "\n"


def make_registry(rows: list[dict],
                  editions: tuple[str, ...] = ("EN", "FR", "DE")) -> PersonRegistry:
    return load_persons(io.StringIO(persons_tsv(rows, editions)))


def planted_toplists(rows: list[dict], algorithm: str = "pagerank") -> list[TopList]:
    """Three overlapping 25-entry lists with a fixed pseudo-random shuffle."""
    ids = [r["person_id"] for r in rows]
    rng = np.random.default_rng(97)
    lists = {}
    lists["EN"] = [ids[i] for i in rng.permutation(25)]
    lists["FR"] = [ids[10 + i] for i in rng.permutation(25)]
    lists["DE"] = [ids[(5 + 3 * i) % 40] for i in range(25)]
    return [
        TopList(edition=code, algorithm=algorithm,
                entries=tuple((pid, i + 1) for i, pid in enumerate(members)))
        for code, members in lists.items()
    ]


@pytest.fixture
def corpus_rows() -> list[dict]:
    return synthetic_person_rows()


@pytest.fixture
def corpus_registry(corpus_rows) -> PersonRegistry:
    return make_registry(corpus_rows)


@pytest.fixture
def corpus_toplists(corpus_rows) -> list[TopList]:
    return planted_toplists(corpus_rows)


@pytest.fixture
def two_node_graph() -> DirectedGraph:
    return DirectedGraph.from_edges(2, [0], [1])


@pytest.fixture
def ring_graph() -> DirectedGraph:
    n = 7
    return DirectedGraph.from_edges(n, range(n), [(i + 1) % n for i in range(n)])


def random_graph(rng: np.random.Generator, n: int, density: float,
                 dangling_tail: int = 0) -> DirectedGraph:
    """Uniform random digraph; the last ``dangling_tail`` nodes get no out-edges."""
    count = max(1, int(density * n * n))
    hi = n - dangling_tail
    src = rng.integers(0, hi, size=count)
    tgt = rng.integers(0, n, size=count)
    return DirectedGraph.from_edges(n, src, tgt, drop_self_loops=True)


def trapped_graph(rng, n=40, pairs=3):
    """Random links among the first nodes, some of them into 2-cycles u <-> v
    at the end that send nothing back: a trapped set that mixes slowly."""
    linking = n - 2 * pairs
    src = list(rng.integers(0, linking, size=4 * n))
    tgt = list(rng.integers(0, n, size=4 * n))
    for k in range(pairs):
        u, v = linking + 2 * k, linking + 2 * k + 1
        src += [u, v]
        tgt += [v, u]
    return DirectedGraph.from_edges(n, src, tgt, drop_self_loops=True)


# small graphs of each shape a sweep split into row blocks meets: dangling
# nodes, slow mixing, blocks with no rows, no edges
BLOCK_GRAPHS = {
    "ring": lambda: DirectedGraph.from_edges(7, range(7), [(i + 1) % 7 for i in range(7)]),
    "random-dangling": lambda: random_graph(np.random.default_rng(31), 60, 0.05,
                                            dangling_tail=6),
    # long enough that pairwise summation splits where the blocks do not
    "random-1500": lambda: random_graph(np.random.default_rng(33), 1500, 0.002,
                                        dangling_tail=100),
    "trapped-2-cycles": lambda: trapped_graph(np.random.default_rng(32)),
    # every edge enters node 0, so inner cuts coincide and blocks are empty
    "hub": lambda: DirectedGraph.from_edges(9, range(1, 9), [0] * 8),
    "no-edges": lambda: DirectedGraph.from_edges(4, [], []),
    "single-node": lambda: DirectedGraph.from_edges(1, [], []),
}


def rank_columns(text: str) -> str:
    """The ``culture,k,kstar,kprime`` columns of a culture ranks CSV.

    The probability columns go through BLAS gemv, whose rounding may vary
    across builds, so golden comparisons leave them out.
    """
    return "".join(",".join(line.split(",")[:4]) + "\n"
                   for line in text.splitlines())
