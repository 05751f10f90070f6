"""Experiment plumbing: context caching and helpers."""

import pytest

from repro.config import CacheConfig
from repro.experiments.common import (ExperimentContext, ExperimentOptions,
                                      gmean_speedup, mean)


@pytest.fixture
def options():
    return ExperimentOptions(n_accesses=6000, workloads=("oltp",), seed=3)


def test_trace_cached_across_calls(options):
    ctx = ExperimentContext(options)
    assert ctx.trace("oltp") is ctx.trace("oltp")


def test_miss_stream_covers_measured_window_only(options):
    ctx = ExperimentContext(options)
    window = ctx.l1_filter("oltp", start=options.warmup)
    assert window.n_accesses == options.n_accesses - options.warmup
    assert 0 < window.n_misses < window.n_accesses
    assert ctx.l1_filter("oltp", start=options.warmup) is window  # memoised
    assert ctx.miss_blocks("oltp") == window.blocks.tolist()
    whole = ctx.l1_filter("oltp")
    assert whole.n_accesses == options.n_accesses
    # Configs that differ only in metadata tables share one filter; a
    # different L1 gets its own.
    tables = ctx.config.scaled(eit_rows=64, ht_entries=1 << 12)
    assert ctx.l1_filter("oltp", tables) is whole
    small_l1 = ctx.config.scaled(l1d=CacheConfig(16 * 1024, 2))
    other = ctx.l1_filter("oltp", small_l1)
    assert other is not whole
    assert other.n_misses > whole.n_misses


def test_run_prefetcher_uses_warmup(options):
    ctx = ExperimentContext(options)
    result = ctx.run_prefetcher("oltp", "stms")
    assert result.metrics.accesses == options.n_accesses - options.warmup


def test_run_prefetcher_accepts_config_override(options):
    ctx = ExperimentContext(options)
    config = ctx.config.scaled(eit_rows=64)
    result = ctx.run_prefetcher("oltp", "domino", config=config)
    assert result.prefetcher == "domino"


def test_core_traces_shape(options):
    ctx = ExperimentContext(options)
    traces = ctx.core_traces("oltp")
    assert len(traces) == ctx.timing.n_cores


def test_mean_and_gmean():
    assert mean([1.0, 3.0]) == 2.0
    assert mean([]) == 0.0
    assert gmean_speedup([2.0, 0.5]) == pytest.approx(1.0)
    assert gmean_speedup([]) == 1.0
