"""Binary vector cache: format round-trip, corruption detection, keying."""
import io

import numpy as np
import pytest

from gmrank.cache import (CacheFormatError, cache_key, content_hash,
                          read_vector, write_rank_csv, write_vector)
from gmrank.rank import RankVector, rank_indices


def vector(n=5, algorithm="pagerank"):
    probs = np.linspace(0.1, 0.3, n)
    probs /= probs.sum()
    return RankVector(probs, algorithm, iterations_used=12, residual=3e-11)


class TestBinaryFormat:
    def test_roundtrip_preserves_probabilities_bitwise(self):
        v = vector()
        buf = io.BytesIO()
        write_vector(buf, v, alpha=0.85)
        buf.seek(0)
        loaded, alpha = read_vector(buf)
        assert alpha == 0.85
        assert loaded.algorithm == "pagerank"
        assert np.array_equal(loaded.probabilities, v.probabilities)

    def test_cheirank_tag_roundtrip(self):
        buf = io.BytesIO()
        write_vector(buf, vector(algorithm="cheirank"), alpha=0.5)
        buf.seek(0)
        loaded, _ = read_vector(buf)
        assert loaded.algorithm == "cheirank"

    def test_layout_is_little_endian_with_magic(self):
        buf = io.BytesIO()
        write_vector(buf, vector(n=2), alpha=0.85)
        raw = buf.getvalue()
        assert raw[:4] == b"GMRK"
        assert raw[4:6] == (1).to_bytes(2, "little")        # version u16
        assert raw[6] == 0                                  # pagerank tag u8
        assert np.frombuffer(raw[7:15], dtype="<f8")[0] == 0.85
        assert int.from_bytes(raw[15:23], "little") == 2    # N u64
        assert len(raw) == 23 + 2 * 8

    def test_bad_magic_detected(self):
        buf = io.BytesIO()
        write_vector(buf, vector(), alpha=0.85)
        corrupted = b"XXXX" + buf.getvalue()[4:]
        with pytest.raises(CacheFormatError, match="magic"):
            read_vector(io.BytesIO(corrupted))

    def test_truncation_detected(self):
        buf = io.BytesIO()
        write_vector(buf, vector(), alpha=0.85)
        with pytest.raises(CacheFormatError, match="truncated"):
            read_vector(io.BytesIO(buf.getvalue()[:-4]))

    def test_unknown_version_detected(self):
        buf = io.BytesIO()
        write_vector(buf, vector(), alpha=0.85)
        raw = bytearray(buf.getvalue())
        raw[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(CacheFormatError, match="version"):
            read_vector(io.BytesIO(bytes(raw)))


class TestKeying:
    def test_key_depends_on_every_parameter(self):
        args = ("abc", "pagerank", 0.85, 1e-10, "integer-ids", True)
        base = cache_key(*args)
        for i, other in enumerate(("abd", "cheirank", 0.5, 1e-8,
                                   "string-labels", False)):
            changed = args[:i] + (other,) + args[i + 1:]
            assert cache_key(*changed) != base
        assert cache_key(*args) == base

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
