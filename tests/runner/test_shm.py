"""Shared-memory trace handoff: publish/attach roundtrip, lifetime,
stale-segment reaping, and pool-level bit-identity with and without it."""

import os

import numpy as np
import pytest

from repro.experiments import fig06_timing_events
from repro.runner import Cell, ExecutionPolicy, run_cells, scheduler, shm


@pytest.fixture(autouse=True)
def _fresh_attach_caches():
    """Worker-side attach caches are per-process; keep tests hermetic."""
    shm._release_attachments()
    yield
    shm._release_attachments()


def _cells():
    return [Cell(kind="trace", workload="oltp", prefetcher=name, degree=1)
            for name in ("stms", "domino")]


class TestPublishAttach:
    def test_spec_key_format(self):
        assert shm.trace_share_key("oltp", 6000, 7) == "oltp|6000|7"

    def test_roundtrip_preserves_every_column(self, tiny_trace):
        key = shm.trace_share_key("tiny", len(tiny_trace), 42)
        share = shm.publish_traces({key: tiny_trace})
        assert share is not None
        try:
            attached = shm.attach_trace(share.spec[key])
            assert attached is not None
            assert attached.name == tiny_trace.name
            assert np.array_equal(attached.pcs, tiny_trace.pcs)
            assert np.array_equal(attached.blocks, tiny_trace.blocks)
            assert np.array_equal(attached.deps, tiny_trace.deps)
            assert np.array_equal(attached.works, tiny_trace.works)
        finally:
            share.close()  # attach views die with the fixture teardown

    def test_attached_arrays_are_read_only(self, tiny_trace):
        share = shm.publish_traces({"k": tiny_trace})
        try:
            attached = shm.attach_trace(share.spec["k"])
            for col in (attached.pcs, attached.blocks,
                        attached.deps, attached.works):
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[0] = 1
        finally:
            share.close()

    def test_repeat_attach_reuses_cached_mapping(self, tiny_trace):
        share = shm.publish_traces({"k": tiny_trace})
        try:
            first = shm.attach_trace(share.spec["k"])
            second = shm.attach_trace(share.spec["k"])
            assert first is second
        finally:
            share.close()

    def test_publish_nothing_returns_none(self):
        assert shm.publish_traces({}) is None

    def test_malformed_entries_return_none(self):
        assert shm.attach_trace({}) is None
        assert shm.attach_trace({"segment": "nope", "n": "x",
                                 "trace_name": "t"}) is None
        assert shm.attach_trace({"segment": "dmtr0x999999",
                                 "n": 5, "trace_name": "t"}) is None

    def test_oversized_spec_length_rejected(self, tiny_trace):
        # A spec claiming more elements than the segment holds must not
        # produce out-of-bounds views.
        share = shm.publish_traces({"k": tiny_trace})
        try:
            entry = dict(share.spec["k"])
            entry["n"] = entry["n"] * 10
            assert shm.attach_trace(entry) is None
        finally:
            share.close()


class TestLifetime:
    def test_close_unlinks_everything(self, tiny_trace):
        share = shm.publish_traces({"a": tiny_trace, "b": tiny_trace})
        assert len(share) == 2
        published = set(e["segment"] for e in share.spec.values())
        assert published <= set(shm.active_segments())
        share.close()
        assert not (published & set(shm.active_segments()))
        share.close()  # idempotent

    def test_reap_unlinks_dead_creator_segments(self):
        from multiprocessing import shared_memory

        # Fabricate a segment whose embedded creator pid cannot exist.
        name = f"{shm.SEGMENT_PREFIX}999999999x0"
        seg = shared_memory.SharedMemory(name=name, create=True, size=64)
        seg.close()
        try:
            assert name in shm.active_segments()
            assert shm.reap_stale_segments() >= 1
            assert name not in shm.active_segments()
        finally:
            if name in shm.active_segments():  # reap failed: clean up
                seg.unlink()

    def test_reap_spares_live_creators(self, tiny_trace):
        share = shm.publish_traces({"k": tiny_trace})  # our pid: alive
        try:
            shm.reap_stale_segments()
            assert set(e["segment"] for e in share.spec.values()) \
                <= set(shm.active_segments())
        finally:
            share.close()


class TestPoolHandoff:
    def test_pool_with_share_matches_serial(self, tiny_options):
        serial, _ = run_cells(_cells(), tiny_options,
                              ExecutionPolicy(use_cache=False))
        pooled, _ = run_cells(_cells(), tiny_options,
                              ExecutionPolicy(jobs=2, use_cache=False))
        assert pooled == serial
        mine = [n for n in shm.active_segments()
                if n.startswith(f"{shm.SEGMENT_PREFIX}{os.getpid()}x")]
        assert mine == []  # the run's finally reclaimed every segment

    def test_timing_cells_get_the_shared_trace(self, tiny_options, monkeypatch):
        """fig06's timing cells read their workload's trace, so a pooled
        run shares it instead of every worker generating it."""
        plans = []
        real_plan = scheduler._trace_share_plan

        def spy(pending, options, store):
            plans.append(real_plan(pending, options, store))
            return plans[-1]

        monkeypatch.setattr(scheduler, "_trace_share_plan", spy)
        scheduler.set_policy(ExecutionPolicy(jobs=2))
        result = fig06_timing_events.run(tiny_options)
        assert result.manifest.mode == "pool"
        key = shm.trace_share_key("oltp", tiny_options.n_accesses,
                                  tiny_options.seed)
        assert plans == [{key: "oltp"}]

    def test_pool_without_share_identical(self, tiny_options, monkeypatch):
        # A platform that refuses shared memory: publish returns None
        # and the workers regenerate their traces from the seed.
        serial, _ = run_cells(_cells(), tiny_options,
                              ExecutionPolicy(use_cache=False))
        monkeypatch.setattr(shm, "publish_traces", lambda traces: None)
        pooled, _ = run_cells(_cells(), tiny_options,
                              ExecutionPolicy(jobs=2, use_cache=False))
        assert pooled == serial
        assert not [n for n in shm.active_segments()
                    if n.startswith(f"{shm.SEGMENT_PREFIX}{os.getpid()}x")]
