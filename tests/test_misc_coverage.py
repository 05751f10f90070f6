"""Small-surface tests that close coverage gaps across modules."""

import pytest

from repro.memory.cache import CacheStats
from repro.sim.multicore import MulticoreResult
from repro.sim.timing import TimingResult


class TestCacheStats:
    def test_rates_idle(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_rates(self):
        stats = CacheStats(accesses=10, hits=7, misses=3)
        assert stats.hit_rate == pytest.approx(0.7)
        assert stats.miss_rate == pytest.approx(0.3)


class TestTimingResult:
    def test_ipc_and_timeliness(self):
        result = TimingResult(workload="w", prefetcher="p", cycles=100.0,
                              instructions=250, prefetch_hits=10,
                              late_prefetch_hits=4)
        assert result.ipc == pytest.approx(2.5)
        assert result.timeliness == pytest.approx(0.6)

    def test_idle_result(self):
        result = TimingResult(workload="w", prefetcher="p")
        assert result.ipc == 0.0
        assert result.timeliness == 0.0


class TestMulticoreResult:
    def test_aggregates_over_cores(self):
        cores = [TimingResult(workload="w", prefetcher="p", cycles=100.0,
                              instructions=200, misses=10, prefetch_hits=10),
                 TimingResult(workload="w", prefetcher="p", cycles=150.0,
                              instructions=300, misses=30, prefetch_hits=10)]
        result = MulticoreResult(workload="w", prefetcher="p", per_core=cores)
        assert result.cycles == 150.0
        assert result.instructions == 500
        assert result.ipc == pytest.approx(500 / 150)
        assert result.coverage == pytest.approx(20 / 60)

    def test_empty(self):
        result = MulticoreResult(workload="w", prefetcher="p")
        assert result.cycles == 0.0
        assert result.ipc == 0.0
        assert result.coverage == 0.0
