"""Seeded fault injection: one mutated input file per run, then the pipeline.

Each run mutates one text file of the CLI tests' three-edition world in
place, runs ``top-people``, ``global`` and ``culture`` until the first
non-zero exit, and puts the file back.  A bad input must exit 2 with one
error line, never a traceback, and that line must start with the mutated
file's path; the test names the two cases where it may not.  A command that
exits 2 leaves every file under ``out/`` as it found it: the same names,
and for each the same inode and bytes.

A cache artifact is not input: a run over a registry artifact with one bit
flipped must exit 0, either on a hit or on one logged miss that names the
artifact.  The run counts are time budgets (about 3 s and 1 s): never lower
them to hide a failure.
"""
import logging
import random

import pytest

from gmrank.cli import EXIT_INPUT, EXIT_OK, main
from gmrank.registry import default_culture_map

from test_cli import build_world

RUNS = 200
FLIPS = 100

# the files a run may mutate, relative to the world's root; the three top
# lists count as one target
CONFIG = "config.ini"
PERSONS = "persons.tsv"
TOPLISTS = tuple(f"out/toplists/{code}_pagerank.csv"
                 for code in ("EN", "FR", "DE"))
TARGETS = (CONFIG, PERSONS, "cultures.tsv", "reference.txt", "en.edges",
           "fr.edges", TOPLISTS)

INSERTS = (b"\0", b"\xff", b"\r", b"\t", b",", b'"', "\u00a0".encode(),
           "\ufeff".encode(), b"nan", b"12345678901234567890")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The CLI tests' world plus a culture map, a reference list and the
    pagerank top lists that ``global`` and ``culture`` read."""
    root = tmp_path_factory.mktemp("faults")
    config = build_world(root)
    (root / "cultures.tsv").write_text("".join(
        f"{cc}\t{lc}\n" for cc, lc in default_culture_map().entries.items()),
        encoding="utf-8")
    (root / "reference.txt").write_text(
        "# top figures\nNapoleon\nJesus\nCarl_Linnaeus\nMarie_Curie\n",
        encoding="utf-8")
    config.write_text(config.read_text(encoding="utf-8").replace(
        "[editions]", "culture_map = cultures.tsv\n[editions]"),
        encoding="utf-8")
    assert main(["top-people", "--config", str(config), "--all"]) == EXIT_OK
    return root


def snapshot(directory) -> dict:
    """Each file below ``directory``, by relative path: its inode and bytes."""
    return {p.relative_to(directory): (p.stat().st_ino, p.read_bytes())
            for p in directory.rglob("*") if p.is_file()}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one seeded fault."""
    at = rng.randrange(len(data) + 1)
    lines = data.splitlines(keepends=True)
    line = rng.randrange(len(lines))
    kind = rng.choice(("flip", "insert", "delete", "truncate", "duplicate",
                       "swap", "long-line", "blank-field"))
    if kind == "flip":
        at = min(at, len(data) - 1)
        return (data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)])
                + data[at + 1:])
    if kind == "insert":
        return data[:at] + rng.choice(INSERTS) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + rng.randint(1, 40):]
    if kind == "truncate":
        return data[:at]
    if kind == "duplicate":
        lines.insert(line, lines[line])
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[line], lines[other] = lines[other], lines[line]
    elif kind == "long-line":
        lines.insert(line, b"x" * 200_000 + b"\n")
    else:                           # blank one field of a line
        body = lines[line].rstrip(b"\r\n")
        sep = next((sep for sep in (b"\t", b",") if sep in body), b" ")
        fields = body.split(sep)
        fields[rng.randrange(len(fields))] = b""
        lines[line] = sep.join(fields) + lines[line][len(body):]
    return b"".join(lines)


@pytest.mark.parametrize("seed", range(RUNS))
def test_bad_input_exits_2_naming_its_file(world, caplog, seed):
    rng = random.Random(seed)
    target = rng.choice(TARGETS)
    if isinstance(target, tuple):
        target = rng.choice(target)
    path = world / target
    original = path.read_bytes()
    path.write_bytes(mutate(original, rng))
    config = str(world / CONFIG)
    try:
        for argv in (["top-people", "--all", "--algorithm", "2drank"],
                     ["global", "--women", "--reference",
                      str(world / "reference.txt")],
                     ["culture", "--before-century", "19"]):
            caplog.clear()
            before = snapshot(world / "out")
            with caplog.at_level(logging.ERROR):
                code = main([*argv[:1], "--config", config, *argv[1:]])
            assert code in (EXIT_OK, EXIT_INPUT), argv
            if code == EXIT_INPUT:
                assert snapshot(world / "out") == before, argv
                break
    finally:
        path.write_bytes(original)
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    if code == EXIT_OK:
        assert errors == []
        return
    assert len(errors) == 1
    if target == CONFIG:            # may name a value, or a file it names
        return
    if target == PERSONS and errors[0].endswith(
            " is not in the persons file (run 'gmrank top-people' again)"):
        # a person lost from the file fails the check of a top list written
        # before the mutation, and that refusal names the top list
        assert errors[0].startswith(tuple(f"{world / t}: " for t in TOPLISTS))
    else:
        assert errors[0].startswith(f"{path}: "), errors[0]


@pytest.fixture(scope="module")
def octal_world(tmp_path_factory):
    """The CLI tests' world with 64 more persons, whose FR titles
    ``Person_00`` to ``Person_77`` (octal) each differ in one bit from six
    others, and a cache filled by ``top-people``; with the path and the
    bytes of its registry artifact."""
    root = tmp_path_factory.mktemp("artifacts")
    config = build_world(root)
    with open(root / PERSONS, "a", encoding="utf-8") as f:
        for i in range(64):
            f.write(f"P{i:02o}\tXX\t1900\tmale\t\tPerson_{i:02o}\t\n")
    assert main(["top-people", "--config", str(config), "--all",
                 "--algorithm", "2drank"]) == EXIT_OK
    artifact = next((root / "cache").glob("*.gmrp"))
    return root, artifact, artifact.read_bytes()


@pytest.mark.parametrize("seed", range(FLIPS))
def test_flipped_registry_artifact_is_a_hit_or_one_miss(octal_world, caplog,
                                                       seed):
    root, artifact, good = octal_world
    rng = random.Random(seed)
    at = rng.randrange(32, len(good))           # past the 32-byte header
    flipped = bytearray(good)
    flipped[at] ^= 1 << rng.randrange(8)
    artifact.write_bytes(flipped)
    caplog.clear()
    try:
        with caplog.at_level(logging.WARNING):
            code = main(["top-people", "--config", str(root / CONFIG),
                         "--all", "--algorithm", "2drank"])
    finally:
        artifact.write_bytes(good)      # a hit leaves the flipped bytes
    messages = [(r.levelno, r.getMessage()) for r in caplog.records]
    assert [m for level, m in messages if level >= logging.ERROR] == []
    assert code == EXIT_OK
    misses = [m for _, m in messages if m.startswith("unusable cache file")]
    assert len(misses) <= 1
    assert all(m.startswith(f"unusable cache file {artifact} (")
               for m in misses)
