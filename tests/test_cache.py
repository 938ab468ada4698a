"""Binary cache artifacts: format round-trip, corruption detection, keying;
plus the rank CSV written from a vector."""
import io
import struct

import numpy as np
import pytest

from gmrank.cache import (CacheFormatError, artifact_path, content_hash,
                          read_graph, read_persons, read_vector, write_graph,
                          write_persons, write_vector)
from gmrank.graph import INTEGER_IDS, STRING_LABELS, load_edge_list
from gmrank.rank import (GoogleParams, RankVector, cheirank, pagerank,
                         rank_indices)
from gmrank.registry import PersonRegistry, default_culture_map
from gmrank.tableio import write_rank_csv


PARAMS = GoogleParams(alpha=0.85, tol=1e-10)


def vector(n=5, algorithm="pagerank"):
    probs = np.linspace(0.1, 0.3, n)
    probs /= probs.sum()
    return RankVector(probs, algorithm, iterations_used=12, residual=3e-11)


def vector_bytes(v=None, params=PARAMS):
    buf = io.BytesIO()
    write_vector(buf, vector() if v is None else v, params)
    return buf.getvalue()


def read_back(raw, algorithm="pagerank", n=5, params=PARAMS):
    return read_vector(io.BytesIO(raw), algorithm, n, params)


class TestBinaryFormat:
    def test_roundtrip_preserves_probabilities_bitwise(self):
        v = vector()
        loaded = read_back(vector_bytes(v))
        assert isinstance(loaded, RankVector)
        assert loaded.algorithm == "pagerank"
        assert np.array_equal(loaded.probabilities, v.probabilities)
        assert (loaded.iterations_used, loaded.residual) == (12, 3e-11)

    def test_cheirank_tag_roundtrip(self):
        params = GoogleParams(alpha=0.5, tol=1e-8)
        raw = vector_bytes(vector(algorithm="cheirank"), params)
        assert raw[6] == 1                                  # cheirank tag u8
        loaded = read_back(raw, "cheirank", params=params)
        assert loaded.algorithm == "cheirank"

    def test_layout_is_little_endian_with_magic(self):
        raw = vector_bytes(vector(n=2))
        assert raw[:4] == b"GMRK"
        assert raw[4:6] == (2).to_bytes(2, "little")        # version u16
        assert raw[6] == 0                                  # pagerank tag u8
        assert np.frombuffer(raw[7:15], dtype="<f8")[0] == 0.85
        assert np.frombuffer(raw[15:23], dtype="<f8")[0] == 1e-10  # tol
        assert int.from_bytes(raw[23:31], "little") == 12   # sweeps u64
        assert np.frombuffer(raw[31:39], dtype="<f8")[0] == 3e-11  # residual
        assert int.from_bytes(raw[39:47], "little") == 2    # N u64
        assert len(raw) == 47 + 2 * 8

    def test_bad_magic_detected(self):
        corrupted = b"XXXX" + vector_bytes()[4:]
        with pytest.raises(CacheFormatError, match="magic"):
            read_back(corrupted)

    def test_truncation_detected(self):
        with pytest.raises(CacheFormatError, match="truncated"):
            read_back(vector_bytes()[:-4])

    @pytest.mark.parametrize("tail", [b"\x00" * 4, b"\x00" * 8])
    def test_overlong_file_detected(self, tail):
        with pytest.raises(CacheFormatError, match="overlong"):
            read_back(vector_bytes() + tail)

    def test_huge_count_rejected_before_reading(self, tmp_path):
        # a header claiming 2**61 probabilities: no read is sized from it
        raw = vector_bytes(vector(n=2))
        path = tmp_path / "huge.gmrk"
        path.write_bytes(raw[:39] + (2 ** 61).to_bytes(8, "little") + raw[47:])
        with open(path, "rb") as f, pytest.raises(CacheFormatError,
                                                  match="truncated"):
            read_vector(f, "pagerank", 2, PARAMS)

    def test_unknown_version_detected(self):
        raw = bytearray(vector_bytes())
        raw[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(CacheFormatError, match="version"):
            read_back(bytes(raw))

    @pytest.mark.parametrize("edit", [
        lambda p: p.__setitem__(0, np.nan),
        lambda p: p.__setitem__(0, np.inf),
        lambda p: p.__setitem__(slice(0, 2), (p[0] + p[1] + 0.5, -0.5)),
        lambda p: p.__setitem__(slice(0, 2), (p[0] + p[1], 0.0)),
        lambda p: p.__imul__(2),
    ], ids=["nan", "inf", "negative", "zero", "doubled"])
    def test_probabilities_not_a_distribution_detected(self, edit):
        raw = vector_bytes()
        probs = np.frombuffer(raw, dtype="<f8", offset=47).copy()
        edit(probs)
        with pytest.raises(CacheFormatError,
                           match="not a positive distribution"):
            read_back(raw[:47] + probs.tobytes())

    def test_sum_off_by_rounding_is_read(self):
        probs = np.full(7, 1 / 7)
        probs[0] += 1e-12
        raw = vector_bytes(RankVector(probs, "pagerank", 1, 0.0))
        assert np.array_equal(read_back(raw, n=7).probabilities, probs)


class TestVectorFit:
    """A well-formed vector serves only a run it was computed for."""

    @pytest.mark.parametrize("algorithm, n, params, reason", [
        ("cheirank", 5, PARAMS, "does not match graph or parameters"),
        ("pagerank", 6, PARAMS, "does not match graph or parameters"),
        ("pagerank", 5, GoogleParams(alpha=0.5, tol=1e-10),
         "does not match graph or parameters"),
        ("pagerank", 5, GoogleParams(alpha=0.85, tol=1e-6),
         "does not match graph or parameters"),
        ("pagerank", 5, GoogleParams(alpha=0.85, tol=1e-10, max_iter=11),
         "took 12 sweeps, over max_iter 11"),
    ], ids=["algorithm", "node-count", "alpha", "tol", "sweeps"])
    def test_misfit_rejected_with_its_reason(self, algorithm, n, params,
                                             reason):
        with pytest.raises(CacheFormatError, match=f"^{reason}$"):
            read_back(vector_bytes(), algorithm, n, params)

    def test_sweeps_equal_to_max_iter_served(self):
        params = GoogleParams(alpha=0.85, tol=1e-10, max_iter=12)
        assert read_back(vector_bytes(), params=params).iterations_used == 12

    def test_format_checked_before_fit(self):
        # the file is damaged and does not fit: the damage is the reason
        raw = vector_bytes()
        probs = np.frombuffer(raw, dtype="<f8", offset=47) * 2
        with pytest.raises(CacheFormatError,
                           match="not a positive distribution"):
            read_back(raw[:47] + probs.tobytes(), "cheirank", 6,
                      GoogleParams(alpha=0.5, max_iter=1))


# duplicates, self-loops, multi-byte UTF-8 labels, and in integer mode a
# header declaring two isolated nodes past the largest id
GRAPH_TEXT = {
    INTEGER_IDS: "# nodes: 9\n0 1\n0 1\n1 2\n2 2\n2 0\n3 1\n4 4\n6 3\n",
    STRING_LABELS: ("Napoléon_Ier Jésus\nJésus 孔子\n孔子 孔子\n"
                    "Jésus Napoléon_Ier\nJésus Napoléon_Ier\nAda Ada\n"
                    "Ada Jésus\n"),
}


def graph_bytes(g):
    buf = io.BytesIO()
    write_graph(buf, g)
    return buf.getvalue()


def parsed(label_mode, drop_self_loops=True, text=None):
    return load_edge_list(io.StringIO(GRAPH_TEXT[label_mode] if text is None
                                      else text),
                          drop_self_loops=drop_self_loops,
                          label_mode=label_mode)


class TestGraphArtifact:
    @pytest.mark.parametrize("label_mode", [INTEGER_IDS, STRING_LABELS])
    @pytest.mark.parametrize("drop_self_loops", [True, False])
    @pytest.mark.parametrize("text", [None, ""], ids=["graph", "empty"])
    def test_roundtrip_equals_fresh_parse(self, label_mode, drop_self_loops,
                                          text):
        fresh = parsed(label_mode, drop_self_loops, text)
        loaded = read_graph(io.BytesIO(graph_bytes(fresh)))
        assert loaded.node_count == fresh.node_count
        for name in ("in_indptr", "in_sources"):
            a, b = getattr(loaded, name), getattr(fresh, name)
            assert a.dtype == b.dtype == np.int32, name
            assert np.array_equal(a, b), name
            assert a.flags.aligned and not a.flags.writeable, name
        # the file holds no out-degrees: the graph counts its sources
        assert loaded.out_degree.dtype == fresh.out_degree.dtype == np.int64
        assert np.array_equal(loaded.out_degree, fresh.out_degree)
        assert loaded.labels == fresh.labels
        assert loaded.self_loops_removed == fresh.self_loops_removed
        if text is None:
            assert loaded.self_loops_removed == (2 if drop_self_loops else 0)
            if label_mode == INTEGER_IDS:
                assert loaded.node_count == 9   # nodes 7 and 8 are isolated
            else:
                assert loaded.labels == ("Napoléon_Ier", "Jésus", "孔子", "Ada")

    @pytest.mark.parametrize("label_mode", [INTEGER_IDS, STRING_LABELS])
    def test_loaded_graph_ranks_bit_identically(self, label_mode):
        fresh = parsed(label_mode)
        loaded = read_graph(io.BytesIO(graph_bytes(fresh)))
        for rank in (pagerank, cheirank):
            a, b = rank(loaded), rank(fresh)
            assert np.array_equal(a.probabilities, b.probabilities)
            assert a.iterations_used == b.iterations_used

    def test_layout_is_little_endian_with_magic(self):
        g = parsed(STRING_LABELS)
        raw = graph_bytes(g)
        n, e = g.node_count, g.edge_count
        assert raw[:4] == b"GMRG"
        assert raw[4:6] == (3).to_bytes(2, "little")        # version u16
        assert raw[6] == 1                                  # label flag u8
        header = np.frombuffer(raw[8:40], dtype="<u8")
        assert header.tolist() == [n, e, g.self_loops_removed,
                                   len(raw) - 40 - 4 * (n + 1 + e)]
        words = np.frombuffer(raw[40:40 + 4 * (n + 1 + e)], dtype="<i4")
        assert np.array_equal(words, np.concatenate(
            [g.in_indptr, g.in_sources]))
        assert raw[40 + 4 * (n + 1 + e):].decode() == "\n".join(g.labels)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda raw, n, e: raw[:30], "truncated header"),
        (lambda raw, n, e: raw[:-1], "expected"),
        (lambda raw, n, e: raw + b"\n", "expected"),
        (lambda raw, n, e: b"GMRK" + raw[4:], "magic"),
        (lambda raw, n, e: raw[:4] + (2).to_bytes(2, "little") + raw[6:],
         "unsupported version 2"),
        (lambda raw, n, e: raw[:6] + b"\x07" + raw[7:], "label flag"),
        (lambda raw, n, e: _word(raw, 0, 1), "offsets"),
        (lambda raw, n, e: _word(raw, n, e + 1), "offsets"),
        # in_indptr[1] = E, above in_indptr[2]
        (lambda raw, n, e: _word(raw, 1, e), "offsets"),
        (lambda raw, n, e: _word(raw, n + 1, n), "source id"),
        # in_sources[2] = 0, as in_sources[1]: node 1's sources 0, 3 -> 0, 0
        (lambda raw, n, e: _word(raw, n + 3, 0), "not strictly ascending"),
        (lambda raw, n, e: _drop_last_label(raw), "labels"),
        (lambda raw, n, e: raw[:-1] + b"\xff", "UTF-8"),
    ], ids=["header-cut", "body-cut", "trailing-byte", "magic", "version",
            "label-flag", "first-offset", "last-offset", "falling-offsets",
            "source-out-of-range", "repeated-source", "label-missing",
            "labels-not-utf8"])
    def test_corruption_detected(self, corrupt, match):
        g = parsed(STRING_LABELS)
        raw = corrupt(graph_bytes(g), g.node_count, g.edge_count)
        with pytest.raises(CacheFormatError, match=match):
            read_graph(io.BytesIO(raw))


def _word(raw, index, value):
    """``raw`` with int32 word ``index`` after the header set to ``value``."""
    at = 40 + 4 * index
    return raw[:at] + value.to_bytes(4, "little", signed=True) + raw[at + 4:]


def _drop_last_label(raw):
    blob_len = int.from_bytes(raw[32:40], "little")
    blob = raw[len(raw) - blob_len:]
    shorter = blob[:blob.rindex(b"\n")]
    return (raw[:32] + len(shorter).to_bytes(8, "little")
            + raw[40:len(raw) - blob_len] + shorter)


# columns as load_persons keeps them: ids, fields, editions, row-major titles
COLUMNS = (["Napoleon", "Jesus", "Ada_Lovelace"],
           [("FR", 1769, "male"), ("PS", -4, "male"), ("UK", None, "female")],
           ["FR", "EN", "ZH"],
           ["Napoléon_Ier", "", "拿破仑", "Jésus", "Jesus", "",
            "", "", "愛達·勒芙蕾絲"])


def persons_bytes(ids, fields, editions, titles):
    buf = io.BytesIO()
    write_persons(buf, ids, fields, editions, titles)
    return buf.getvalue()


def read_persons_bytes(raw):
    return read_persons(io.BytesIO(raw))


def _strings_joined(raw):
    return raw[32 + 8 * int.from_bytes(raw[8:16], "little"):]


def _with_blob(raw, blob):
    """``raw`` with its string blob, and the blob length, replaced."""
    head = raw[:len(raw) - len(_strings_joined(raw))]
    return head[:24] + struct.pack("<Q", len(blob)) + head[32:] + blob


class TestPersonsArtifact:
    @pytest.mark.parametrize("columns", [
        COLUMNS, ([], [], [], []), ([], [], ["EN", "DE"], []),
        (["A"], [("XX", None, "unknown")], [], []),
        (["A"], [("XX", 2**63 - 1, "unknown")], ["DE"], [""])],
        ids=["persons", "empty", "no-persons", "no-editions", "one-empty-title"])
    def test_roundtrip(self, columns):
        ids, fields, editions, titles = columns
        read = read_persons_bytes(persons_bytes(*columns))
        # the titles come back still joined, for the registry to split
        assert read == (ids, fields, editions, "\0".join(titles))
        registry = PersonRegistry(*read, default_culture_map())
        assert registry.columns() == tuple(columns)

    def test_layout_is_little_endian_with_magic(self):
        raw = persons_bytes(*COLUMNS)
        assert raw[:4] == b"GMRP"
        assert raw[4:8] == (1).to_bytes(2, "little") + b"\0\0"
        assert struct.unpack_from("<QQQ", raw, 8) == (
            3, 3, len(raw) - 32 - 8 * 3)
        assert np.frombuffer(raw[32:56], dtype="<i8").tolist() == [
            1769, -4, 0]
        strings = _strings_joined(raw).decode().split("\0")
        assert strings[:12] == ["FR", "EN", "ZH",
                                "Napoleon", "Jesus", "Ada_Lovelace",
                                "FR", "PS", "UK", "male", "male", "female"]
        assert strings[12:] == COLUMNS[3]

    @pytest.mark.parametrize("corrupt, match", [
        (lambda raw: raw[:20], "truncated header"),
        (lambda raw: raw[:-1], "expected"),
        (lambda raw: raw + b"x", "expected"),
        (lambda raw: b"GMRG" + raw[4:], "magic"),
        (lambda raw: raw[:4] + (0).to_bytes(2, "little") + raw[6:],
         "unsupported version 0"),
        (lambda raw: _with_blob(raw, _strings_joined(raw).replace(
            b"\0", b"_", 1)), "expected 21 strings, found 20"),
        (lambda raw: _with_blob(raw, _strings_joined(raw) + b"\0"),
         "expected 21 strings, found 22"),
        (lambda raw: raw[:-1] + b"\xff", "UTF-8"),
    ], ids=["header-cut", "body-cut", "trailing-byte", "magic", "version",
            "string-missing", "string-extra", "not-utf8"])
    def test_corruption_detected(self, corrupt, match):
        with pytest.raises(CacheFormatError, match=match):
            read_persons_bytes(corrupt(persons_bytes(*COLUMNS)))

    @pytest.mark.parametrize("edit, match", [
        (lambda ids, fields, editions: editions.__setitem__(2, "XY"),
         "unknown edition code 'XY'"),
        (lambda ids, fields, editions: editions.__setitem__(2, "FR"),
         "duplicate edition code"),
        (lambda ids, fields, editions: fields.__setitem__(
            1, ("PS", -4, "other")), "unknown gender 'other'"),
        (lambda ids, fields, editions: ids.__setitem__(2, "Napoleon"),
         "duplicate person_id"),
    ], ids=["unknown-edition", "duplicate-edition", "unknown-gender",
            "duplicate-id"])
    def test_invalid_columns_detected(self, edit, match):
        # the reader checks the format; the registry refuses the columns
        ids, fields, editions, titles = (list(c) for c in COLUMNS)
        edit(ids, fields, editions)
        raw = persons_bytes(ids, fields, editions, titles)
        with pytest.raises(ValueError, match=match):
            PersonRegistry(*read_persons_bytes(raw), default_culture_map())


# (suffix, key inputs, a different value for each input), per artifact kind
ARTIFACT_KINDS = {
    "graph": ("gmrg", ("abc", "string-labels", True),
              ("abd", "integer-ids", False)),
    "vector": ("gmrk", ("abc", "string-labels", True, "cheirank", 0.85, 1e-10),
               ("abd", "integer-ids", False, "pagerank", 0.5, 1e-8)),
    "persons": ("gmrp", ("abc",), ("abd",)),
}


class TestKeying:
    @pytest.mark.parametrize("kind", ARTIFACT_KINDS)
    def test_key_depends_on_every_input(self, kind):
        suffix, inputs, others = ARTIFACT_KINDS[kind]
        base = artifact_path("c", suffix, *inputs)
        for i, other in enumerate(others):
            changed = inputs[:i] + (other,) + inputs[i + 1:]
            assert artifact_path("c", suffix, *changed) != base
        assert artifact_path("c", suffix, *inputs) == base

    @pytest.mark.parametrize("kind, name", [
        ("graph", "59c070028d19b099246a7f79f62f403b.gmrg"),
        ("vector", "428d32fc93ab463d358c1c7fa4af7cb7.gmrk"),
        ("persons", "ba7816bf8f01cfea414140de5dae2223.gmrp"),
    ])
    def test_names_are_pinned(self, tmp_path, kind, name):
        """A cache filled by an earlier release stays warm."""
        suffix, inputs, _ = ARTIFACT_KINDS[kind]
        assert artifact_path(tmp_path, suffix, *inputs) == tmp_path / name

    def test_content_hash_tracks_file_bytes(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\n")
        h1 = content_hash(f)
        f.write_text("0 1\n1 2\n")
        assert content_hash(f) != h1


class TestRankCsv:
    def test_rows_in_rank_order(self):
        v = vector(3)
        idx = rank_indices(v)
        buf = io.StringIO()
        write_rank_csv(buf, v, idx, labels=("a", "b", "c"))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "node_id,label,probability,rank"
        assert lines[1].startswith("2,c,") and lines[1].endswith(",1")
        assert len(lines) == 4

    def test_probabilities_roundtrip_through_repr(self):
        v = vector(4)
        buf = io.StringIO()
        write_rank_csv(buf, v, rank_indices(v), labels=None)
        for line in buf.getvalue().splitlines()[1:]:
            node_id, _, prob, _ = line.split(",")
            assert float(prob) == v.probabilities[int(node_id)]
