"""Tests for LLC-stream persistence."""

import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.stream_io import read_llc_stream, write_llc_stream
from repro.common.errors import TraceError
from repro.trace.io import write_trace
from repro.trace.trace import Trace
from repro.trace.record import Access
from tests.conftest import make_stream


class TestRoundtrip:
    def test_plain(self, tmp_path):
        stream = make_stream([(0, 0x1, 10, False), (3, 0x2, 11, True)],
                             name="rt")
        path = tmp_path / "s.rllc"
        write_llc_stream(stream, path)
        loaded = read_llc_stream(path)
        assert list(loaded) == list(stream)
        assert loaded.name == "rt"

    def test_gzip(self, tmp_path):
        stream = make_stream([(0, 0, i % 7, False) for i in range(5000)])
        plain, gz = tmp_path / "s.rllc", tmp_path / "s.rllc.gz"
        write_llc_stream(stream, plain)
        write_llc_stream(stream, gz)
        assert list(read_llc_stream(gz)) == list(stream)
        assert gz.stat().st_size < plain.stat().st_size

    def test_empty(self, tmp_path):
        path = tmp_path / "e.rllc"
        write_llc_stream(make_stream([]), path)
        assert len(read_llc_stream(path)) == 0

    STREAM = [(i % 4, 0x40 + (i % 3), (i * 7) % 90, i % 5 == 0)
              for i in range(400)]

    @pytest.mark.parametrize("filename", ("a.rllc", "a.rllc.gz"))
    def test_loads_array_columns(self, tmp_path, filename):
        # Plain and gzip files take the same reader and yield the
        # builder's column types.
        path = tmp_path / filename
        write_llc_stream(make_stream(self.STREAM), path)
        loaded = read_llc_stream(path)
        assert [(type(c), c.typecode) for c in loaded.columns()] == [
            (array, "b"), (array, "q"), (array, "q"), (array, "b"),
        ]
        assert list(loaded) == list(make_stream(self.STREAM))

    def test_plain_reserializes_byte_identically(self, tmp_path):
        stream = make_stream(self.STREAM, name="rt2")
        original = tmp_path / "a.rllc"
        rewritten = tmp_path / "b.rllc"
        write_llc_stream(stream, original)
        write_llc_stream(read_llc_stream(original), rewritten)
        assert original.read_bytes() == rewritten.read_bytes()

    @pytest.mark.parametrize("filename", ("r.rllc", "r.rllc.gz"))
    def test_reloaded_replay_matches_builder_replay(self, tmp_path,
                                                    filename):
        from repro.common.config import CacheGeometry
        from repro.sim.multipass import run_policy_on_stream

        stream = make_stream(self.STREAM, name="replay")
        path = tmp_path / filename
        write_llc_stream(stream, path)
        loaded = read_llc_stream(path)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("lru", "srrip", "ship"):
            a = run_policy_on_stream(stream, geometry, policy, seed=5)
            b = run_policy_on_stream(loaded, geometry, policy, seed=5)
            assert a == b, policy

    @settings(max_examples=15)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.just(5),
                      st.integers(min_value=0, max_value=1 << 50),
                      st.booleans()),
            max_size=40,
        ),
        st.sampled_from(["p.rllc", "p.rllc.gz"]),
    )
    def test_roundtrip_property(self, accesses, filename):
        import tempfile
        from pathlib import Path

        stream = make_stream(accesses)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / filename
            write_llc_stream(stream, path)
            loaded = read_llc_stream(path)
            assert list(loaded) == list(stream)
            assert loaded.name == stream.name


class TestErrors:
    def test_rejects_trace_files(self, tmp_path):
        """A trace file must not silently load as an LLC stream."""
        trace = Trace.from_accesses([Access(0, 1, 2, False)])
        path = tmp_path / "t.rtrc"
        write_trace(trace, path)
        with pytest.raises(TraceError, match="not an LLC stream"):
            read_llc_stream(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.rllc"
        path.write_bytes(struct.pack("<4sIQII", b"RLLC", 9, 0, 0, 0))
        with pytest.raises(TraceError, match="version"):
            read_llc_stream(path)

    def test_truncated(self, tmp_path):
        stream = make_stream([(0, 0, i, False) for i in range(50)])
        path = tmp_path / "t.rllc"
        write_llc_stream(stream, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(TraceError, match="truncated"):
            read_llc_stream(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        stream = make_stream([(0, 0, i, False) for i in range(50)])
        path = tmp_path / "c.rllc"
        write_llc_stream(stream, path)
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0xFF  # inside the last column, before the footer
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="checksum"):
            read_llc_stream(path)

    def test_empty_file_reports_truncated_header(self, tmp_path):
        path = tmp_path / "empty.rllc"
        path.write_bytes(b"")
        with pytest.raises(TraceError, match="truncated header"):
            read_llc_stream(path)

    def test_missing_footer_rejected(self, tmp_path):
        stream = make_stream([(0, 0, 1, False)])
        path = tmp_path / "f.rllc"
        write_llc_stream(stream, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])  # drop the CRC footer entirely
        with pytest.raises(TraceError, match="checksum"):
            read_llc_stream(path)


class TestVersionCompatibility:
    def test_reads_version_1_without_footer(self, tmp_path):
        # A v1 file is a v2 file minus the trailing CRC, with version=1.
        stream = make_stream([(2, 0x9, 3, True), (0, 0x9, 4, False)],
                             name="old")
        path = tmp_path / "v1.rllc"
        write_llc_stream(stream, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob[:-4]))
        loaded = read_llc_stream(path)
        assert list(loaded) == list(stream)
        assert loaded.name == "old"
