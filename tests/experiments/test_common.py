"""Experiment plumbing: context caching and helpers."""

import pytest

from repro.config import SystemConfig
from repro.experiments.common import (ExperimentContext, ExperimentOptions,
                                      gmean_speedup, mean)
from repro.prefetchers.registry import make_prefetcher
from repro.runner import Cell, ExecutionPolicy, run_cells
from repro.sim.engine import simulate_trace
from repro.sim.fastpath import build_l1_filter


@pytest.fixture
def options():
    return ExperimentOptions(n_accesses=6000, workloads=("oltp",), seed=3)


def test_trace_cached_across_calls(options):
    ctx = ExperimentContext(options)
    assert ctx.trace("oltp") is ctx.trace("oltp")


def test_miss_stream_covers_measured_window_only(options):
    ctx = ExperimentContext(options)
    trace = ctx.trace("oltp")
    window = build_l1_filter(trace.slice(options.warmup, len(trace)), ctx.config)
    assert window.n_accesses == options.n_accesses - options.warmup
    assert 0 < window.n_misses < window.n_accesses
    assert ctx.miss_blocks("oltp") == window.blocks.tolist()
    assert window.n_misses < build_l1_filter(trace, ctx.config).n_misses


def test_trace_cell_uses_warmup(options):
    cell = Cell(kind="trace", workload="oltp", prefetcher="stms")
    (payload,), _ = run_cells([cell], options, ExecutionPolicy())
    assert payload["accesses"] == options.n_accesses - options.warmup


def test_trace_cell_accepts_config_override(options):
    cell = Cell(kind="trace", workload="oltp", prefetcher="domino",
                overrides=(("eit_rows", 64),))
    (payload,), _ = run_cells([cell], options, ExecutionPolicy())
    config = SystemConfig().scaled(eit_rows=64)
    expected = simulate_trace(
        ExperimentContext(options).trace("oltp"), config,
        make_prefetcher("domino", config, degree=options.degree),
        warmup=options.warmup)
    assert payload["coverage"] == expected.coverage
    assert payload["metadata_reads"] == expected.metadata.reads


def test_core_traces_shape(options):
    ctx = ExperimentContext(options)
    traces = ctx.core_traces("oltp")
    assert len(traces) == ctx.timing.n_cores


def test_mean_and_gmean():
    assert mean([1.0, 3.0]) == 2.0
    assert mean([]) == 0.0
    assert gmean_speedup([2.0, 0.5]) == pytest.approx(1.0)
    assert gmean_speedup([]) == 1.0
