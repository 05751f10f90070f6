"""Differential tests: the engines against each other and the oracles.

Both engines run one per-miss event path
(:class:`~repro.sim.engine.EventPath`) over the rows of an L1 filter, so
agreement between them alone would prove little.  The independent
implementation is the per-access timing oracle in
``tests/sim/reference.py``: its own L1 ``Cache``, one step per access,
a warm-up snapshot subtracted at the end, and a multicore interleave
that advances one access at a time.  Single-core
:class:`~repro.sim.timing.TimingSimulator` runs and 4-core
:func:`~repro.sim.multicore.simulate_multicore` runs must equal it field
for field (floats compared as ``float.hex``), for every registered
prefetcher on four workloads, with and without a warm-up window (one
of which opens inside a run of L1 hits and one on an L1 miss), under
the timing and the small test configuration.

The cycle model also makes the same trace-level decisions as the trace
engine — buffer lookup, which candidates to issue — and only adds time
on top.  Its one extra decision is the drop gate that sheds prefetches
under channel saturation; with the gate set so high it never fires,
both engines must count the same misses, prefetch hits and issued
prefetches.
"""

import dataclasses

import pytest

from repro.config import SystemConfig, small_test_config, timing_config
from repro.prefetchers.registry import make_prefetcher, prefetcher_names
from repro.sim.engine import TraceSimulator
from repro.sim.fastpath import build_l1_filter
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import TimingSimulator
from repro.workloads.suite import WorkloadSuite

from .reference import ReferenceTimingSimulator, reference_multicore

#: Backlog, in block-service times, that no run here can reach.
NEVER_DROP = 1 << 40

WORKLOADS = ("oltp", "web_apache", "media_streaming", "sat_solver")

CONFIGS = {
    "small": small_test_config(prefetch_drop_backlog_blocks=NEVER_DROP),
    "default": SystemConfig(prefetch_drop_backlog_blocks=NEVER_DROP),
}

#: The configurations the timing oracle is compared under, drop gate on.
TIMING_CONFIGS = {"small": small_test_config(), "timing": timing_config()}

WARMUP_FRACS = (0.0, 0.5)


@pytest.fixture(scope="module")
def traces():
    suite = WorkloadSuite(seed=1234)
    return [suite.trace(workload, 4000) for workload in WORKLOADS]


@pytest.fixture(scope="module")
def core_traces():
    suite = WorkloadSuite(seed=1234)
    return [suite.core_traces(workload, 1500, n_cores=4)
            for workload in WORKLOADS]


def _timing_fields(result):
    fields = dataclasses.asdict(result)
    fields["cycles"] = float.hex(result.cycles)
    return fields


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", prefetcher_names())
def test_trace_and_timing_engines_agree(traces, name, config_name):
    config = CONFIGS[config_name]
    for trace in traces:
        for warmup_frac in WARMUP_FRACS:
            warmup = int(len(trace) * warmup_frac)
            coverage = TraceSimulator(
                config, make_prefetcher(name, config)).run(trace, warmup=warmup)
            timing = TimingSimulator(
                config, make_prefetcher(name, config)).run(trace, warmup=warmup)
            where = (trace.name, warmup_frac)
            assert timing.prefetches_dropped == 0, where
            assert timing.misses == coverage.metrics.misses, where
            assert timing.prefetch_hits == coverage.metrics.prefetch_hits, where
            assert (timing.prefetches_issued
                    == coverage.metrics.prefetches_issued), where


def _timing_warmups(trace, config):
    """No warm-up, half the trace, and the first L1 hit and the first L1
    miss from the half on: the measured window may open inside a hit run
    or on the miss whose own access ``step`` issues."""
    half = len(trace) // 2
    misses = build_l1_filter(trace, config).indices.tolist()
    miss_set = set(misses)
    first_hit = next(i for i in range(half, len(trace)) if i not in miss_set)
    first_miss = next(i for i in misses if i >= half)
    return tuple(dict.fromkeys((0, half, first_hit, first_miss)))


@pytest.mark.parametrize("config_name", sorted(TIMING_CONFIGS))
@pytest.mark.parametrize("name", prefetcher_names())
def test_timing_matches_oracle(traces, name, config_name):
    config = TIMING_CONFIGS[config_name]
    for trace in traces:
        for warmup in _timing_warmups(trace, config):
            got = TimingSimulator(
                config, make_prefetcher(name, config)).run(trace, warmup=warmup)
            want = ReferenceTimingSimulator(
                config, make_prefetcher(name, config)).run(trace, warmup=warmup)
            assert _timing_fields(got) == _timing_fields(want), (
                trace.name, warmup)


@pytest.mark.parametrize("config_name", sorted(TIMING_CONFIGS))
@pytest.mark.parametrize("name", prefetcher_names())
def test_multicore_matches_oracle(core_traces, name, config_name):
    config = TIMING_CONFIGS[config_name]
    for traces in core_traces:
        for warmup_frac in WARMUP_FRACS:
            got = simulate_multicore(traces, config, name,
                                     warmup_frac=warmup_frac)
            want = reference_multicore(traces, config, name,
                                       warmup_frac=warmup_frac)
            where = (traces[0].name, warmup_frac)
            assert ([_timing_fields(core) for core in got.per_core]
                    == [_timing_fields(core) for core in want.per_core]), where
            assert (float.hex(got.bandwidth_utilization)
                    == float.hex(want.bandwidth_utilization)), where
