"""Fig. 15 bandwidth decomposition."""

import pytest

from repro.stats.bandwidth import BandwidthBreakdown


def test_from_run_decomposition():
    breakdown = BandwidthBreakdown(baseline_blocks=100,
                                   incorrect_prefetch_blocks=40,
                                   metadata_read_blocks=30 + 20,
                                   metadata_write_blocks=10 + 5)
    assert breakdown.incorrect_prefetch_overhead == pytest.approx(0.4)
    assert breakdown.metadata_read_overhead == pytest.approx(0.5)
    assert breakdown.metadata_write_overhead == pytest.approx(0.15)
    assert breakdown.total_overhead == pytest.approx(1.05)


def test_zero_baseline_is_safe():
    breakdown = BandwidthBreakdown(0, 5, 5, 5)
    assert breakdown.total_overhead == 0.0
