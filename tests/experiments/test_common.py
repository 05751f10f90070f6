"""Experiment plumbing: the traces and filters cells read, and helpers."""

import pytest

from repro.config import SystemConfig, timing_config
from repro.experiments.common import ExperimentOptions, gmean_speedup, mean
from repro.prefetchers.multi_lookup import LookupDepthAnalyzer
from repro.prefetchers.registry import make_prefetcher
from repro.runner import Cell, ExecutionPolicy, execute, run_cells
from repro.runner.cells import measured_window
from repro.sim.engine import simulate_trace
from repro.sim.fastpath import build_l1_filter


@pytest.fixture
def options():
    return ExperimentOptions(n_accesses=6000, workloads=("oltp",), seed=3)


def test_trace_cached_across_calls(options):
    assert execute._trace("oltp", options) is execute._trace("oltp", options)


def test_miss_stream_covers_measured_window_only(options):
    cell = Cell(kind="lookup_depth", workload="oltp", params=(("max_depth", 3),))
    assert measured_window(cell, options) == (options.warmup, options.n_accesses)
    trace = execute._trace("oltp", options)
    window = build_l1_filter(trace.slice(options.warmup, len(trace)), SystemConfig())
    assert window.n_accesses == options.n_accesses - options.warmup
    assert 0 < window.n_misses < window.n_accesses
    assert window.n_misses < build_l1_filter(trace, SystemConfig()).n_misses
    (payload,), _ = run_cells([cell], options, ExecutionPolicy())
    stats = LookupDepthAnalyzer(3).analyze(window.blocks.tolist())
    assert payload["match_rate"] == [s.match_rate for s in stats]


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
        execute._trace("oltp", options), config,
        make_prefetcher("domino", config, degree=options.degree),
        warmup=options.warmup)
    assert payload["coverage"] == expected.coverage
    assert payload["metadata_reads"] == expected.metadata.reads


def test_core_traces_shape(options):
    config = timing_config()
    for workload in ("oltp", "data_tier"):  # a workload, a standard mix
        traces = execute._core_traces(workload, options, config)
        assert len(traces) == config.n_cores
        assert {len(t) for t in traces} == {options.per_core_accesses}
    assert [t.name for t in traces] == ["oltp", "data_serving"] * 2


def test_mean_and_gmean():
    assert mean([1.0, 3.0]) == 2.0
    assert mean([]) == 0.0
    assert gmean_speedup([2.0, 0.5]) == pytest.approx(1.0)
    assert gmean_speedup([]) == 1.0
