"""DRAM latency and the shared bandwidth ledger."""

import pytest

from repro.config import SystemConfig
from repro.memory.dram import BandwidthLedger, DramModel


class TestBandwidthLedger:
    def test_idle_channel_no_delay(self):
        ledger = BandwidthLedger(cycles_per_block=10.0)
        assert ledger.request(100.0) == 0.0

    def test_back_to_back_requests_queue(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0)
        assert ledger.request(0.0) == pytest.approx(10.0)
        assert ledger.request(0.0) == pytest.approx(20.0)

    def test_gap_drains_queue(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0)
        assert ledger.request(50.0) == 0.0

    def test_demand_priority_ignores_prefetch_backlog(self):
        ledger = BandwidthLedger(10.0)
        for _ in range(5):
            ledger.request(0.0, demand=False)
        # Prefetch-class backlog is 50 cycles, but demand sees none.
        assert ledger.request(0.0, demand=True) == 0.0

    def test_prefetch_queues_behind_demand(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0, demand=True)
        assert ledger.request(0.0, demand=False) == pytest.approx(10.0)

    def test_backlog_reports_prefetch_class_queue(self):
        ledger = BandwidthLedger(10.0)
        assert ledger.backlog(0.0) == 0.0
        ledger.request(0.0, demand=False)
        ledger.request(0.0, demand=False)
        assert ledger.backlog(0.0) == pytest.approx(20.0)
        assert ledger.backlog(100.0) == 0.0

    def test_utilization(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0)
        ledger.request(0.0)
        assert ledger.utilization(100.0) == pytest.approx(0.2)
        assert ledger.utilization(0.0) == 0.0

    def test_invalid_service_time(self):
        with pytest.raises(ValueError):
            BandwidthLedger(0.0)


class TestDramModel:
    def test_latency_applied(self):
        config = SystemConfig()
        dram = DramModel(config)
        completion = dram.access(0.0)
        assert completion == pytest.approx(config.memory_latency_cycles)

    def test_completion_is_queue_delay_plus_latency(self):
        config = SystemConfig()
        dram = DramModel(config)
        latency = config.memory_latency_cycles
        cycles = config.cycles_per_block_transfer
        assert dram.access(10.0) == 10.0 + latency
        # A prefetch-class transfer queues behind the demand...
        assert dram.access(10.0, demand=False) == pytest.approx(10.0 + cycles + latency)
        # ...but a demand transfer ignores prefetch-class backlog.
        assert dram.access(10.0 + cycles) == 10.0 + cycles + latency

    def test_cycles_per_block_matches_table1(self):
        config = SystemConfig()
        # 37.5 GB/s at 4 GHz = 9.375 B/cycle -> 64 B block every ~6.83 cycles
        assert config.cycles_per_block_transfer == pytest.approx(64 / 9.375)
