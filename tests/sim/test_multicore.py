"""Quad-core timing simulation tests."""

import pytest

from repro.sim.multicore import simulate_multicore
from repro.workloads.synthetic import SyntheticWorkload


@pytest.fixture
def core_traces(config, tiny_trace):
    """``tiny_trace`` cut into one contiguous, equal slice per core."""
    step = len(tiny_trace) // config.n_cores
    return [tiny_trace.slice(core * step, (core + 1) * step)
            for core in range(config.n_cores)]


class TestSimulateMulticore:
    def test_per_core_trace_list(self, config, tiny_workload):
        workload = SyntheticWorkload(tiny_workload, seed=3)
        traces = [workload.generate(1500, seed=10 + i) for i in range(config.n_cores)]
        result = simulate_multicore(traces, config, "baseline", warmup_frac=0.0)
        assert len(result.per_core) == config.n_cores

    def test_wrong_trace_count_rejected(self, config, tiny_trace):
        with pytest.raises(ValueError):
            simulate_multicore([tiny_trace], config, "baseline")

    def test_factory_overrides_name(self, config, core_traces):
        result = simulate_multicore(core_traces, config, "vldp",
                                    warmup_frac=0.0, degree=1)
        assert result.prefetcher == "vldp"
        assert all(r.prefetcher == "vldp" for r in result.per_core)

    def test_bandwidth_utilization_bounded(self, config, core_traces):
        result = simulate_multicore(core_traces, config, "baseline",
                                    warmup_frac=0.0)
        assert 0.0 <= result.bandwidth_utilization <= 1.0

    def test_warmup_reduces_measured_instructions(self, config, core_traces):
        full = simulate_multicore(core_traces, config, "baseline",
                                  warmup_frac=0.0)
        warmed = simulate_multicore(core_traces, config, "baseline",
                                    warmup_frac=0.5)
        assert warmed.instructions < full.instructions

    def test_coverage_property(self, config, core_traces):
        result = simulate_multicore(core_traces, config, "domino",
                                    warmup_frac=0.0)
        assert 0.0 <= result.coverage <= 1.0

    def test_trace_shorter_than_core_count(self, config, trace_factory):
        # Three accesses over four cores: one each on three cores, none
        # on the fourth, which never enters the interleave.
        traces = [trace_factory([1], works=[4]), trace_factory([2], works=[5]),
                  trace_factory([3], works=[6]), trace_factory([])]
        result = simulate_multicore(traces, config, "baseline")
        assert len(result.per_core) == config.n_cores
        assert result.instructions == sum(t.instructions for t in traces)

    def test_empty_per_core_trace(self, config, core_traces, trace_factory):
        core_traces[-1] = trace_factory([])
        result = simulate_multicore(core_traces, config, "baseline")
        idle = result.per_core[-1]
        assert (idle.instructions, idle.cycles) == (0, 0.0)
        assert result.instructions > 0


class TestPerCoreAccounting:
    def test_per_core_ipc_consistent_with_counters(self, config, core_traces):
        result = simulate_multicore(core_traces, config, "baseline",
                                    warmup_frac=0.0)
        for core in result.per_core:
            assert core.cycles > 0
            assert core.ipc == pytest.approx(core.instructions / core.cycles)

    def test_per_core_cycles_include_trailing_misses(self, config, core_traces):
        # Every core's trace ends with misses still in flight; the
        # finalise() drain means each core is charged at least one full
        # memory round trip (tiny_trace misses on every core).
        result = simulate_multicore(core_traces, config, "baseline",
                                    warmup_frac=0.0)
        for core in result.per_core:
            assert core.misses > 0
            assert core.cycles >= config.memory_latency_cycles

    def test_system_ipc_uses_slowest_core(self, config, core_traces):
        result = simulate_multicore(core_traces, config, "baseline",
                                    warmup_frac=0.0)
        assert result.cycles == pytest.approx(
            max(core.cycles for core in result.per_core))


class TestSpeedup:
    def test_prefetcher_helps_repetitive_workload(self, paper_config,
                                                  tiny_workload):
        workload = SyntheticWorkload(tiny_workload.scaled(work_mean=30.0),
                                     seed=3)
        traces = [workload.generate(4000, seed=50 + i) for i in range(4)]
        baseline = simulate_multicore(traces, paper_config, "baseline")
        domino = simulate_multicore(traces, paper_config, "domino")
        assert domino.ipc / baseline.ipc > 0.95  # never a serious slowdown
