"""Prefetcher base interface and NullPrefetcher."""

import pytest

from repro.prefetchers.base import NullPrefetcher


class TestNullPrefetcher:
    def test_never_prefetches(self, config):
        null = NullPrefetcher(config)
        assert null.on_miss(0, 1) == []
        assert null.on_prefetch_hit(0, 1, 0) == []

    def test_default_degree_from_config(self, config):
        assert NullPrefetcher(config).degree == config.prefetch_degree

    def test_degree_override(self, config):
        assert NullPrefetcher(config, degree=2).degree == 2

    def test_invalid_degree(self, config):
        with pytest.raises(ValueError):
            NullPrefetcher(config, degree=0)

    def test_killed_streams_drained_once(self, config):
        null = NullPrefetcher(config)
        null._kill_stream(7)
        assert null.take_killed_streams() == [7]
        assert null.take_killed_streams() == []

    def test_reset_traffic(self, config):
        null = NullPrefetcher(config)
        null.metadata.index_reads = 5
        null.reset_traffic()
        assert null.metadata.total == 0
