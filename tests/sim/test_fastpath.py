"""L1 fastpath tests: filter construction, codec, and the bit-identical
guarantee of both engine entry points against the per-access reference
simulator (``tests/sim/reference.py``)."""

import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.prefetchers.base import NullPrefetcher
from repro.prefetchers.registry import prefetcher_names
from repro.sim.engine import TraceSimulator
from repro.sim.fastpath import (BINARY_CODEC, FASTPATH_VERSION, REPLAY_SLICE,
                                L1Filter, build_l1_filter,
                                build_l1_filter_scalar, filter_from_payload,
                                filter_to_binary)

from .reference import (L1_CONFIGS, ReferenceSimulator,
                        assert_matches_reference, reference_filter_rows,
                        ways_config)

FIELDS = ("indices", "pcs", "blocks", "evicted")

PINNED_PREFETCHERS = ["baseline", "vldp+domino", "stms", "digram", "domino",
                      "isb", "vldp"]


def _assert_filter_matches_reference(filt, trace, config):
    rows = reference_filter_rows(trace, config.l1d)
    expected = np.asarray(rows, dtype=np.int64).reshape(-1, 4).T
    for column, fname in zip(expected, FIELDS, strict=True):
        assert np.array_equal(getattr(filt, fname), column), fname


def _roundtrip(filt, tmp_path):
    """Sidecar round trip: ``(served payload, loaded filter)``."""
    payload, data = filter_to_binary(filt)
    sidecar = tmp_path / "filter.bin"
    sidecar.write_bytes(data)
    payload["sidecar_path"] = str(sidecar)
    return payload, filter_from_payload(payload)


class TestBuild:
    def test_filter_matches_baseline_miss_stream(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        reference = ReferenceSimulator(config, NullPrefetcher(config))
        reference.run(tiny_trace)
        expected = reference.misses
        assert list(zip(filt.pcs.tolist(), filt.blocks.tolist())) == expected

    def test_metadata_fields(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        assert filt.trace_name == tiny_trace.name
        assert filt.n_accesses == len(tiny_trace)
        assert 0 < filt.n_misses <= filt.n_accesses
        assert filt.miss_rate == filt.n_misses / filt.n_accesses
        assert list(filt.indices) == sorted(filt.indices)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(SimulationError):
            L1Filter(trace_name="t", n_accesses=10,
                     indices=np.zeros(2, dtype=np.int64),
                     pcs=np.zeros(3, dtype=np.int64),
                     blocks=np.zeros(2, dtype=np.int64),
                     evicted=np.zeros(2, dtype=np.int64))

    def test_more_misses_than_accesses_rejected(self):
        with pytest.raises(SimulationError):
            L1Filter(trace_name="t", n_accesses=1,
                     indices=np.zeros(2, dtype=np.int64),
                     pcs=np.zeros(2, dtype=np.int64),
                     blocks=np.zeros(2, dtype=np.int64),
                     evicted=np.zeros(2, dtype=np.int64))


class TestReplayEquivalence:
    """run() and run_filtered() must both equal the reference loop."""

    @pytest.mark.parametrize("name", PINNED_PREFETCHERS)
    @pytest.mark.parametrize("warmup", [0, 3000])
    def test_prefetchers_bit_identical(self, tiny_trace, name, warmup):
        for config in L1_CONFIGS:
            assert_matches_reference(config, tiny_trace, name, degree=4,
                                     warmup=warmup)

    @pytest.mark.parametrize("degree", [1, 8])
    def test_degrees_bit_identical(self, tiny_trace, degree):
        for config in L1_CONFIGS:
            assert_matches_reference(config, tiny_trace, "domino",
                                     degree=degree)

    def test_every_registered_prefetcher(self, tiny_trace):
        for config in L1_CONFIGS:
            filt = build_l1_filter(tiny_trace, config)
            for name in prefetcher_names():
                assert_matches_reference(config, tiny_trace, name,
                                         warmup=1500, filt=filt)

    def test_roundtripped_filter_equivalent(self, config, tiny_trace,
                                            tmp_path):
        _, filt = _roundtrip(build_l1_filter(tiny_trace, config), tmp_path)
        assert_matches_reference(config, tiny_trace, "stms", filt=filt)

    def test_warmup_past_last_miss(self, trace_factory):
        # One cold miss, then hits only: every recorded miss falls in
        # the warm-up window, so the loop's trailing reset must fire.
        trace = trace_factory([5] * 50)
        for config in L1_CONFIGS:
            result = assert_matches_reference(config, trace, "baseline",
                                              warmup=10)
            assert result.metrics.misses == 0
            assert result.metrics.accesses == 40

    def test_whole_trace_warmup_rejected(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        sim = TraceSimulator(config, NullPrefetcher(config))
        with pytest.raises(SimulationError):
            sim.run_filtered(filt, warmup=len(tiny_trace))
        with pytest.raises(SimulationError):
            sim.run(tiny_trace, warmup=len(tiny_trace))


def _all_miss_trace(trace_factory, n):
    """``n`` accesses that all miss the 2-way test L1: a 300-block loop
    puts 4-5 blocks in every set, so no block survives until its reuse,
    while the repetition still gives the temporal prefetchers hits."""
    return trace_factory([i % 300 for i in range(n)])


class TestReplaySlices:
    """The streamed feed converts ``REPLAY_SLICE`` rows at a time; replay
    must not notice where one slice ends and the next begins."""

    @pytest.mark.parametrize("n_misses", [
        0, REPLAY_SLICE - 1, REPLAY_SLICE, REPLAY_SLICE + 1,
        2 * REPLAY_SLICE + 1])
    def test_slice_boundaries_bit_identical(self, config, trace_factory,
                                            n_misses):
        trace = _all_miss_trace(trace_factory, n_misses)
        filt = build_l1_filter(trace, config)
        assert filt.n_misses == n_misses
        columns = np.stack([getattr(filt, f) for f in FIELDS], axis=1)
        assert list(filt.replay_rows()) == columns.tolist()
        for name in ("stms", "domino"):
            assert_matches_reference(config, trace, name, filt=filt)

    def test_first_measured_miss_opens_a_slice(self, config, trace_factory):
        trace = _all_miss_trace(trace_factory, 2 * REPLAY_SLICE + 1)
        filt = build_l1_filter(trace, config)
        # Every access misses, so the warm-up puts the first measured
        # miss on row REPLAY_SLICE: the first row of the second slice.
        assert filt.indices[REPLAY_SLICE] == REPLAY_SLICE
        for name in ("stms", "domino"):
            result = assert_matches_reference(config, trace, name,
                                              warmup=REPLAY_SLICE, filt=filt)
            assert result.metrics.prefetch_hits > 0


def _empty_trace(trace_factory):
    return trace_factory([])


class TestModes:
    """The build kernels — the closed-form 2-way kernel and the scalar
    ``Cache`` pass every other associativity takes — against the
    list-LRU reference."""

    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_all_builders_match_scalar_reference(self, tiny_trace, ways):
        config = ways_config(ways)
        built = build_l1_filter(tiny_trace, config)
        _assert_filter_matches_reference(built, tiny_trace, config)
        scalar = build_l1_filter_scalar(tiny_trace, config)
        for fname in FIELDS:
            assert np.array_equal(getattr(built, fname),
                                  getattr(scalar, fname)), fname

    def test_windowed_slices_match_scalar(self, tiny_trace):
        # The opportunity analysis filters sliced traces; every kernel
        # must agree on every window too.
        for config in L1_CONFIGS:
            for start, stop in ((0, 1000), (1500, 4000), (5990, 6000)):
                window = tiny_trace.slice(start, stop)
                fast = build_l1_filter(window, config)
                slow = build_l1_filter_scalar(window, config)
                for fname in FIELDS:
                    assert np.array_equal(getattr(fast, fname),
                                          getattr(slow, fname)), (start, stop)
                _assert_filter_matches_reference(fast, window, config)
                assert_matches_reference(config, window, "domino", filt=fast)

    def test_single_set_contention_matches_scalar(self, trace_factory):
        # Adversarial: every access lands in set 0, six blocks contend
        # for the ways, so the LRU victim logic is exercised constantly.
        rng = np.random.default_rng(11)
        picks = rng.integers(0, 6, size=5000)
        for config in L1_CONFIGS:
            trace = trace_factory((picks * config.l1d.n_sets).tolist())
            fast = build_l1_filter(trace, config)
            slow = build_l1_filter_scalar(trace, config)
            for fname in FIELDS:
                assert np.array_equal(getattr(fast, fname),
                                      getattr(slow, fname))
            _assert_filter_matches_reference(fast, trace, config)
            assert_matches_reference(config, trace, "stms", filt=fast)


class TestWritability:
    """Filter arrays are immutable on every construction path.

    Mutating a cached filter would silently corrupt every later replay
    sharing it; built and sidecar-mmapped filters must both refuse
    writes identically.
    """

    @staticmethod
    def _assert_frozen(filt):
        for fname in FIELDS:
            arr = getattr(filt, fname)
            assert not arr.flags.writeable, fname
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_built_filter_frozen(self, config, tiny_trace):
        self._assert_frozen(build_l1_filter(tiny_trace, config))

    def test_binary_loaded_filter_frozen(self, config, tiny_trace, tmp_path):
        _, filt = _roundtrip(build_l1_filter(tiny_trace, config), tmp_path)
        self._assert_frozen(filt)


class TestDegenerate:
    """Pinned boundary cases: empty, all-hit, and all-miss traces."""

    def test_empty_trace_filter(self, trace_factory):
        trace = _empty_trace(trace_factory)
        for config in L1_CONFIGS:
            filt = build_l1_filter(trace, config)
            assert filt.n_accesses == 0 and filt.n_misses == 0
            assert_matches_reference(config, trace, "baseline", filt=filt)

    def test_all_hit_trace(self, trace_factory):
        trace = trace_factory([5] * 50)
        for config in L1_CONFIGS:
            filt = build_l1_filter(trace, config)
            assert filt.n_misses == 1  # the single cold miss
            assert_matches_reference(config, trace, "baseline", filt=filt)

    def test_all_miss_trace(self, trace_factory):
        # Distinct blocks all mapping to set 0: no reuse, every access
        # misses, and evictions start as soon as the ways fill.
        for config in L1_CONFIGS:
            n_sets = config.l1d.n_sets
            trace = trace_factory([i * n_sets for i in range(200)])
            filt = build_l1_filter(trace, config)
            assert filt.n_misses == 200
            assert (int(np.count_nonzero(filt.evicted >= 0))
                    == 200 - config.l1d.ways)
            assert_matches_reference(config, trace, "stms", filt=filt)

    def test_handcrafted_zero_miss_filter(self, config):
        empty = np.zeros(0, dtype=np.int64)
        empty.setflags(write=False)
        filt = L1Filter(trace_name="synthetic", n_accesses=50,
                        indices=empty, pcs=empty, blocks=empty,
                        evicted=empty)
        result = TraceSimulator(config, NullPrefetcher(config)).run_filtered(
            filt, warmup=10)
        assert result.metrics.accesses == 40
        assert result.metrics.misses == 0


class TestBinaryCodec:
    """The .npy sidecar codec: roundtrip, validation, and version 1."""

    def test_roundtrip_exact(self, config, tiny_trace, tmp_path):
        filt = build_l1_filter(tiny_trace, config)
        payload, back = _roundtrip(filt, tmp_path)
        assert payload["codec"] == BINARY_CODEC
        assert back.trace_name == filt.trace_name
        assert back.n_accesses == filt.n_accesses
        for fname in FIELDS:
            assert np.array_equal(getattr(back, fname), getattr(filt, fname))

    def test_replay_through_sidecar_bit_identical(self, config, tiny_trace,
                                                  tmp_path):
        _, back = _roundtrip(build_l1_filter(tiny_trace, config), tmp_path)
        assert_matches_reference(config, tiny_trace, "domino", warmup=1500,
                                 filt=back)

    def test_empty_filter_roundtrip(self, config, trace_factory, tmp_path):
        filt = build_l1_filter(_empty_trace(trace_factory), config)
        _, back = _roundtrip(filt, tmp_path)
        assert back.n_misses == 0

    def test_envelope_is_json_safe(self, config, tiny_trace):
        payload, _ = filter_to_binary(build_l1_filter(tiny_trace, config))
        assert json.loads(json.dumps(payload)) == payload

    def test_missing_sidecar_path_rejected(self, config, tiny_trace):
        payload, _ = filter_to_binary(build_l1_filter(tiny_trace, config))
        with pytest.raises(SimulationError, match="no sidecar"):
            filter_from_payload(payload)

    def test_truncated_sidecar_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        sidecar = tmp_path / "filter.bin"
        sidecar.write_bytes(data[:-16])
        payload["sidecar_path"] = str(sidecar)
        with pytest.raises(SimulationError, match="size mismatch"):
            filter_from_payload(payload)

    def test_tampered_n_misses_rejected(self, config, tiny_trace, tmp_path):
        payload, _ = _roundtrip(build_l1_filter(tiny_trace, config), tmp_path)
        payload["n_misses"] = payload["n_misses"] + 1
        with pytest.raises(SimulationError, match="shape mismatch"):
            filter_from_payload(payload)

    def test_flipped_sidecar_bit_rejected(self, config, tiny_trace, tmp_path):
        # One flipped bit in the last ``evicted`` value keeps the size,
        # shape and dtype; only the recorded CRC can catch it.
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        flipped = bytearray(data)
        flipped[-8] ^= 1
        sidecar = tmp_path / "filter.bin"
        sidecar.write_bytes(bytes(flipped))
        payload["sidecar_path"] = str(sidecar)
        with pytest.raises(SimulationError, match="CRC mismatch"):
            filter_from_payload(payload)

    def test_garbage_sidecar_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        sidecar = tmp_path / "filter.bin"
        sidecar.write_bytes(b"\x00" * len(data))
        payload["sidecar_path"] = str(sidecar)
        with pytest.raises(SimulationError):
            filter_from_payload(payload)

    def test_v1_inline_payloads_rejected(self, config, tiny_trace):
        # Version 1 also wrote zlib+base64 columns inline in the JSON;
        # that codec is gone, and such a payload is refused (its key
        # differs too, so a version-2 build never even looks it up).
        payload, _ = filter_to_binary(build_l1_filter(tiny_trace, config))
        payload.update(version=1, codec="zlib+b64:<i8")
        with pytest.raises(SimulationError, match="incompatible"):
            filter_from_payload(payload)


class TestPayloadCodec:
    """The JSON envelope's own checks, before the sidecar is trusted."""

    def test_wrong_version_rejected(self, config, tiny_trace, tmp_path):
        payload, _ = _roundtrip(build_l1_filter(tiny_trace, config), tmp_path)
        payload["version"] = FASTPATH_VERSION + 1
        with pytest.raises(SimulationError, match="incompatible"):
            filter_from_payload(payload)

    @staticmethod
    def _with_sidecar(filt, arr, tmp_path):
        """The envelope of ``filt`` served with ``arr`` as its sidecar."""
        payload, _ = filter_to_binary(filt)
        sidecar = tmp_path / "filter.bin"
        with open(sidecar, "wb") as fh:
            np.save(fh, arr, allow_pickle=False)
        payload["sidecar_path"] = str(sidecar)
        return payload

    def test_corrupt_array_rejected(self, config, tiny_trace, tmp_path):
        # Same byte size, wrong dtype: the size check passes and the
        # dtype check must catch it.
        filt = build_l1_filter(tiny_trace, config)
        stacked = np.stack([getattr(filt, f) for f in FIELDS]).astype("<f8")
        payload = self._with_sidecar(filt, stacked, tmp_path)
        assert (tmp_path / "filter.bin").stat().st_size == payload["sidecar_bytes"]
        with pytest.raises(SimulationError, match="shape mismatch"):
            filter_from_payload(payload)

    def test_truncated_array_rejected(self, config, tiny_trace, tmp_path):
        # A sidecar holding one miss fewer than the envelope claims,
        # with its recorded size matching, still fails the shape check.
        filt = build_l1_filter(tiny_trace, config)
        short = np.stack([getattr(filt, f)[:-1] for f in FIELDS]).astype("<i8")
        payload = self._with_sidecar(filt, short, tmp_path)
        payload["sidecar_bytes"] = (tmp_path / "filter.bin").stat().st_size
        with pytest.raises(SimulationError, match="shape mismatch"):
            filter_from_payload(payload)

    def test_missing_field_rejected(self, config, tiny_trace, tmp_path):
        payload, _ = _roundtrip(build_l1_filter(tiny_trace, config), tmp_path)
        del payload["n_accesses"]
        with pytest.raises(SimulationError, match="malformed"):
            filter_from_payload(payload)
