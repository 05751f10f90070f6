"""Trace container and persistence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim.trace import MemoryTrace, load_trace, save_trace


class TestMemoryTrace:
    def test_instruction_count(self, trace_factory):
        trace = trace_factory([1, 2, 3], works=[10, 0, 5])
        assert trace.instructions == 15 + 3

    def test_footprint(self, trace_factory):
        trace = trace_factory([1, 2, 2, 3, 1])
        assert trace.footprint_blocks == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError):
            MemoryTrace(pcs=np.zeros(2, dtype=np.int64),
                        blocks=np.zeros(3, dtype=np.int64),
                        deps=np.zeros(3, dtype=np.int8),
                        works=np.zeros(3, dtype=np.int32))

    def test_negative_blocks_rejected(self, trace_factory):
        with pytest.raises(TraceError):
            trace_factory([1, -2, 3])

    def test_slice(self, trace_factory):
        trace = trace_factory([1, 2, 3, 4, 5])
        part = trace.slice(1, 3)
        assert part.blocks.tolist() == [2, 3]

    def test_slice_full_range_and_empty(self, trace_factory):
        trace = trace_factory([1, 2, 3])
        assert trace.slice(0, 3).blocks.tolist() == [1, 2, 3]
        assert len(trace.slice(2, 2)) == 0

    @pytest.mark.parametrize("start,stop", [
        (-1, 2),    # negative start would wrap under numpy semantics
        (0, -1),    # negative stop would silently shrink
        (0, 4),     # stop past the end would silently clamp
        (5, 6),     # fully out of range would be silently empty
        (3, 1),     # inverted window would be silently empty
    ])
    def test_slice_out_of_bounds_rejected(self, trace_factory, start, stop):
        with pytest.raises(TraceError):
            trace_factory([1, 2, 3]).slice(start, stop)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, trace_factory):
        trace = trace_factory([5, 6, 7], pcs=[1, 2, 3], deps=[0, 1, 0],
                              works=[9, 9, 9], name="roundtrip")
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.blocks.tolist() == [5, 6, 7]
        assert loaded.pcs.tolist() == [1, 2, 3]
        assert loaded.deps.tolist() == [0, 1, 0]
        assert loaded.name == "roundtrip"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "missing.npz")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, foo=np.zeros(3))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_roundtrip_via_str_paths(self, tmp_path, trace_factory):
        """The artifact-store path handles plain strings too."""
        trace = trace_factory([1, 2, 3], name="strpath")
        path = str(tmp_path / "t.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "strpath"
        assert loaded.blocks.tolist() == [1, 2, 3]
        assert loaded.works.tolist() == trace.works.tolist()

    def test_garbage_bytes_raise_trace_error(self, tmp_path):
        """Not-a-zip files must surface as TraceError, not BadZipFile."""
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01 this is not an npz archive")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_truncated_archive_raises_trace_error(self, tmp_path, trace_factory):
        """A half-written artifact (killed process) is malformed, not fatal."""
        path = tmp_path / "t.npz"
        save_trace(trace_factory([1, 2, 3]), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceError):
            load_trace(path)
