"""Differential test between the two independently written engines.

The cycle model (:class:`~repro.sim.timing.TimingSimulator`) makes the
same trace-level decisions as the trace engine — L1 hit or miss, buffer
lookup, which candidates to issue — and only adds time on top.  Its one
extra decision is the drop gate that sheds prefetches under channel
saturation; with the gate set so high it never fires, both engines must
count the same misses, prefetch hits and issued prefetches for every
registered prefetcher, with and without a warm-up window.
"""

import pytest

from repro.config import SystemConfig, small_test_config
from repro.prefetchers.registry import make_prefetcher, prefetcher_names
from repro.sim.engine import TraceSimulator
from repro.sim.timing import TimingSimulator
from repro.workloads.suite import WorkloadSuite

#: Backlog, in block-service times, that no run here can reach.
NEVER_DROP = 1 << 40

WORKLOADS = ("oltp", "web_apache", "media_streaming", "sat_solver")

CONFIGS = {
    "small": small_test_config(prefetch_drop_backlog_blocks=NEVER_DROP),
    "default": SystemConfig(prefetch_drop_backlog_blocks=NEVER_DROP),
}


@pytest.fixture(scope="module")
def traces():
    suite = WorkloadSuite(seed=1234)
    return [suite.trace(workload, 4000) for workload in WORKLOADS]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", prefetcher_names())
def test_trace_and_timing_engines_agree(traces, name, config_name):
    config = CONFIGS[config_name]
    for trace in traces:
        for warmup_frac in (0.0, 0.5):
            warmup = int(len(trace) * warmup_frac)
            coverage = TraceSimulator(
                config, make_prefetcher(name, config)).run(trace, warmup=warmup)
            timing = TimingSimulator(
                config, make_prefetcher(name, config)).run(
                trace, warmup_frac=warmup_frac)
            where = (trace.name, warmup_frac)
            assert timing.prefetches_dropped == 0, where
            assert timing.misses == coverage.metrics.misses, where
            assert timing.prefetch_hits == coverage.metrics.prefetch_hits, where
            assert (timing.prefetches_issued
                    == coverage.metrics.prefetches_issued), where
