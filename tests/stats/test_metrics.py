"""Coverage metrics arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.metrics import CoverageMetrics


def test_coverage_definition():
    m = CoverageMetrics(misses=60, prefetch_hits=40)
    assert m.triggering_events == 100
    assert m.coverage == pytest.approx(0.4)


def test_overprediction_can_exceed_one():
    m = CoverageMetrics(misses=10, prefetch_hits=0, overpredictions=25)
    assert m.overprediction_ratio == pytest.approx(2.5)


def test_accuracy():
    m = CoverageMetrics(prefetch_hits=30, prefetches_issued=120)
    assert m.accuracy == pytest.approx(0.25)


def test_idle_metrics_are_zero():
    m = CoverageMetrics()
    assert m.coverage == 0.0
    assert m.overprediction_ratio == 0.0
    assert m.accuracy == 0.0


@given(misses=st.integers(0, 10**6), hits=st.integers(0, 10**6),
       issued=st.integers(0, 10**6))
def test_ratios_always_bounded(misses, hits, issued):
    m = CoverageMetrics(misses=misses, prefetch_hits=hits,
                        prefetches_issued=max(issued, hits))
    assert 0.0 <= m.coverage <= 1.0
    assert 0.0 <= m.accuracy <= 1.0
