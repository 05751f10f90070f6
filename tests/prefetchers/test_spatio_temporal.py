"""VLDP+Domino stack: routing, training policy, stream-id namespacing."""

import pytest

from repro.config import small_test_config
from repro.memory.block import block_in_page
from repro.prefetchers.spatio_temporal import SpatioTemporalPrefetcher


@pytest.fixture
def config():
    return small_test_config(sampling_probability=1.0, prefetch_degree=2)


class TestRouting:
    def test_miss_feeds_both_components(self, config):
        stack = SpatioTemporalPrefetcher(config)
        # Spatial pattern trains VLDP; repetition trains Domino.
        for block in [block_in_page(1, 0), block_in_page(1, 1),
                      block_in_page(1, 2)]:
            candidates = stack.on_miss(0, block)
        # VLDP contributes a next-line-ish candidate.
        assert any(sid % 2 == stack._VLDP for _, sid in candidates)

    def test_stream_ids_decode_to_owner(self, config):
        stack = SpatioTemporalPrefetcher(config)
        for block in [10, 20, 10]:
            candidates = stack.on_miss(0, block)
        owners = {stack._owner_of(sid) for _, sid in candidates}
        assert owners <= {stack._VLDP, stack._DOMINO}

    def test_vldp_hit_does_not_train_domino(self, config):
        stack = SpatioTemporalPrefetcher(config)
        events_before = stack.domino.history.next_position
        stack.on_prefetch_hit(0, block_in_page(2, 1),
                              stream_id=2 * 2 + stack._VLDP)
        assert stack.domino.history.next_position == events_before
        assert stack.component_hits["vldp"] == 1

    def test_domino_hit_trains_both(self, config):
        stack = SpatioTemporalPrefetcher(config)
        stack.on_miss(0, 100)
        events_before = stack.domino.history.next_position
        stack.on_prefetch_hit(0, 101, stream_id=0 * 2 + stack._DOMINO)
        assert stack.domino.history.next_position == events_before + 1
        assert stack.component_hits["domino"] == 1

    def test_buffer_eviction_routed_by_owner(self, config):
        stack = SpatioTemporalPrefetcher(config)
        # Build a live Domino stream, then push unused evictions at it.
        for block in [1, 2, 3, 4, 1, 2, 3, 4]:
            stack.on_miss(0, block)
        domino_streams = list(stack.domino.streams)
        if domino_streams:
            sid = domino_streams[-1].stream_id
            stack.on_buffer_eviction(5, sid * 2 + stack._DOMINO)
            assert domino_streams[-1].unused_evictions == 1

    def test_killed_streams_are_retagged(self, config):
        config = config.scaled(active_streams=1)
        stack = SpatioTemporalPrefetcher(config)
        for block in [1, 2, 3, 1, 2, 3, 4, 5, 4, 5]:
            stack.on_miss(0, block)
        killed = stack.take_killed_streams()
        for sid in killed:
            assert stack._owner_of(sid) in (stack._VLDP, stack._DOMINO)

    def test_metadata_is_dominos(self, config):
        stack = SpatioTemporalPrefetcher(config)
        stack.on_miss(0, 1)
        assert stack.metadata is stack.domino.metadata
        assert stack.metadata.index_reads >= 1
