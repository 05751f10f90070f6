"""STMS behaviour on hand-crafted miss sequences (sampling forced to 1)."""

import pytest

from repro.config import small_test_config
from repro.prefetchers.stms import StmsPrefetcher


@pytest.fixture
def config():
    return small_test_config(sampling_probability=1.0, prefetch_degree=4)


def feed(prefetcher, blocks, pc=0):
    out = []
    for block in blocks:
        out = prefetcher.on_miss(pc, block)
    return out


class TestLookupAndReplay:
    def test_cold_misses_prefetch_nothing(self, config):
        stms = StmsPrefetcher(config)
        assert feed(stms, [1, 2, 3]) == []

    def test_replay_issues_degree_successors(self, config):
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3, 4, 5, 6, 7])
        candidates = stms.on_miss(0, 1)
        assert [b for b, _ in candidates] == [2, 3, 4, 5]

    def test_single_address_lookup_picks_last_occurrence(self, config):
        stms = StmsPrefetcher(config)
        # Head 1 followed by 2.. then by 20..: STMS replays the LAST one.
        feed(stms, [1, 2, 3, 4, 5, 1, 20, 30, 40, 50])
        candidates = stms.on_miss(0, 1)
        assert [b for b, _ in candidates] == [20, 30, 40, 50]

    def test_prefetch_hit_advances_stream_by_one(self, config):
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3, 4, 5, 6, 7, 8])
        candidates = stms.on_miss(0, 1)
        sid = candidates[0][1]
        more = stms.on_prefetch_hit(0, 2, sid)
        assert [b for b, _ in more] == [6]

    def test_stream_extends_across_ht_rows(self, config):
        stms = StmsPrefetcher(config)
        row = config.ht_row_entries
        seq = list(range(100, 100 + 2 * row + 4))
        feed(stms, seq)
        candidates = stms.on_miss(0, seq[0])
        sid = candidates[0][1]
        # Drain well past the first HT row.
        issued = [b for b, _ in candidates]
        for _ in range(row):
            more = stms.on_prefetch_hit(0, issued[-1], sid)
            if not more:
                break
            issued.extend(b for b, _ in more)
        assert len(issued) > row - 2

    def test_hit_on_dead_stream_is_ignored(self, config):
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3, 4, 5])
        candidates = stms.on_miss(0, 1)
        sid = candidates[0][1]
        stms.streams.remove(sid)
        assert stms.on_prefetch_hit(0, 2, sid) == []


class TestMetadataTraffic:
    def test_index_read_per_miss(self, config):
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3])
        assert stms.metadata.index_reads >= 3

    def test_sampled_updates_cost_read_modify_write(self):
        config = small_test_config(sampling_probability=0.0)
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3, 1])
        # No sampling: lookups read, but no index writes ever.
        assert stms.metadata.index_writes == 0
        # And the index never learns, so no stream is found.
        assert stms.on_miss(0, 2) == []

    def test_history_write_per_row(self, config):
        stms = StmsPrefetcher(config)
        feed(stms, list(range(config.ht_row_entries * 2)))
        assert stms.metadata.history_writes == 2


class TestStreamEndDetection:
    def test_unused_evictions_kill_stream(self, config):
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3, 4, 5, 6, 7])
        candidates = stms.on_miss(0, 1)
        sid = candidates[0][1]
        stms.on_buffer_eviction(2, sid)
        stms.on_buffer_eviction(3, sid)
        assert stms.streams.get(sid) is None

    def test_detection_can_be_disabled(self):
        config = small_test_config(sampling_probability=1.0,
                                   stream_end_detection=False)
        stms = StmsPrefetcher(config)
        feed(stms, [1, 2, 3, 4, 5, 6, 7])
        sid = stms.on_miss(0, 1)[0][1]
        for _ in range(5):
            stms.on_buffer_eviction(2, sid)
        assert stms.streams.get(sid) is not None


class TestBoundedIndex:
    def test_stale_pointer_dropped_after_ht_wrap(self):
        config = small_test_config(sampling_probability=1.0, ht_entries=8,
                                   ht_row_entries=4)
        stms = StmsPrefetcher(config, unbounded=False)
        feed(stms, [1, 2, 3])
        feed(stms, list(range(100, 120)))  # wraps the 8-entry HT
        assert stms.on_miss(0, 1) == []

    def test_bounded_index_capacity(self):
        config = small_test_config(sampling_probability=1.0)
        stms = StmsPrefetcher(config, unbounded=False, it_entries=2)
        feed(stms, [1, 2, 3, 4, 5])
        assert len(stms._index) <= 2
