"""Cross-cutting simulator invariants, property-style.

These run every prefetcher against randomly structured traces and
assert the accounting identities that must hold regardless of
prediction quality — the engine equivalent of conservation laws.  The
hostile-trace strategies add the access patterns that stress temporal
prefetchers most: working sets that change wholesale, drift or
oscillate (the static/dynamic/oscillating split of cache-trace
generators), and addresses with several different successors (the
paper's Fig. 3 failure mode for single-address lookup).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.prefetchers.registry import make_prefetcher, prefetcher_names
from repro.sim.engine import simulate_trace
from repro.sim.timing import TimingSimulator
from repro.sim.trace import MemoryTrace

from .reference import L1_CONFIGS, assert_matches_reference


def random_trace(seed: int, n: int = 1500) -> MemoryTrace:
    rng = np.random.default_rng(seed)
    # A blend of loops and noise so every prefetcher has something to chew.
    loop = rng.integers(0, 300, size=40)
    blocks = []
    while len(blocks) < n:
        if rng.random() < 0.7:
            start = int(rng.integers(0, len(loop) - 8))
            blocks.extend(loop[start:start + 8].tolist())
        else:
            blocks.append(int(rng.integers(0, 10_000)))
    return MemoryTrace(
        pcs=rng.integers(0, 16, size=n),
        blocks=np.asarray(blocks[:n], dtype=np.int64),
        deps=(rng.random(n) < 0.3).astype(np.int8),
        works=rng.integers(0, 10, size=n).astype(np.int32),
        name=f"random{seed}",
    )


def _trace(blocks, seed: int, name: str) -> MemoryTrace:
    """A trace over ``blocks`` with random PCs, deps and work."""
    rng = np.random.default_rng(seed)
    n = len(blocks)
    return MemoryTrace(
        pcs=rng.integers(0, 16, size=n),
        blocks=np.asarray(blocks, dtype=np.int64),
        deps=(rng.random(n) < 0.3).astype(np.int8),
        works=rng.integers(0, 10, size=n).astype(np.int32),
        name=name,
    )


@st.composite
def phase_change_traces(draw) -> MemoryTrace:
    """Phases that each loop over their own working set; the set is
    replaced wholesale at every phase boundary."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    blocks: list[int] = []
    for phase in range(draw(st.integers(2, 4))):
        size = draw(st.integers(4, 300))
        working_set = rng.choice(5_000, size=size, replace=False) + phase * 5_000
        blocks.extend(np.resize(working_set, draw(st.integers(50, 400))).tolist())
    return _trace(blocks, seed, "phase_change")


@st.composite
def drifting_hot_set_traces(draw) -> MemoryTrace:
    """A hot window walked in order, plus noise, that slides forward by
    ``drift`` blocks every ``period`` accesses."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    hot = draw(st.integers(8, 400))
    drift = draw(st.integers(1, 64))
    period = draw(st.integers(20, 200))
    blocks = []
    for i in range(draw(st.integers(200, 1200))):
        base = (i // period) * drift
        if rng.random() < 0.85:
            blocks.append(base + i % hot)
        else:
            blocks.append(100_000 + int(rng.integers(0, 10_000)))
    return _trace(blocks, seed, "drifting_hot_set")


@st.composite
def oscillating_traces(draw) -> MemoryTrace:
    """Two disjoint working sets taking turns every ``period`` accesses,
    each walked in its own order."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    sets = [rng.permutation(draw(st.integers(4, 300))) + offset
            for offset in (0, 20_000)]
    period = draw(st.integers(10, 300))
    blocks = []
    for i in range(draw(st.integers(200, 1200))):
        working_set = sets[(i // period) % 2]
        blocks.append(int(working_set[i % len(working_set)]))
    return _trace(blocks, seed, "oscillating")


#: A multiple of every pinned L1's set count: blocks scaled by it all
#: map to set 0, so even a few short streams keep missing the L1.
ONE_SET = 128


@st.composite
def ambiguous_successor_traces(draw) -> MemoryTrace:
    """One shared address followed by a different successor stream in
    each of several contexts, recurring in random order: the previous
    miss alone cannot tell the streams apart, the previous two can."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    shared = 1
    n_contexts = draw(st.integers(2, 6))
    stream_len = draw(st.integers(1, 6))
    streams = [[10 + c, shared] + [100 + 10 * c + k for k in range(stream_len)]
               for c in range(n_contexts)]
    n = draw(st.integers(200, 1000))
    blocks = []
    while len(blocks) < n:
        blocks.extend(streams[int(rng.integers(0, n_contexts))])
    return _trace([b * ONE_SET for b in blocks], seed, "ambiguous_successors")


HOSTILE_TRACES = {
    "phase_change": phase_change_traces(),
    "drifting_hot_set": drifting_hot_set_traces(),
    "oscillating": oscillating_traces(),
    "ambiguous_successors": ambiguous_successor_traces(),
}


ALL_PREFETCHERS = [p for p in prefetcher_names() if p != "baseline"]


def _assert_accounting_identities(result) -> None:
    """accesses = hits + misses + covered; issued = useful + useless."""
    m = result.metrics
    assert m.accesses == m.l1_hits + m.misses + m.prefetch_hits
    assert m.prefetches_issued == m.prefetch_hits + m.overpredictions
    assert 0.0 <= result.coverage <= 1.0
    assert 0.0 <= result.accuracy <= 1.0
    assert m.overpredictions >= 0


@pytest.mark.parametrize("name", ALL_PREFETCHERS)
def test_engine_accounting_identities(name):
    config = small_test_config()
    trace = random_trace(seed=hash(name) % 1000)
    result = simulate_trace(trace, config, make_prefetcher(name, config))
    _assert_accounting_identities(result)


@pytest.mark.parametrize("kind", sorted(HOSTILE_TRACES))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_hostile_traces_conserve_and_match_reference(kind, data):
    """On every hostile pattern, at L1 ways 1, 2 and 4: the identities
    hold, and both engine entry points equal the per-access reference,
    with and without a warm-up window."""
    trace = data.draw(HOSTILE_TRACES[kind], label="trace")
    name = data.draw(st.sampled_from(ALL_PREFETCHERS), label="prefetcher")
    for config in L1_CONFIGS:
        _assert_accounting_identities(
            assert_matches_reference(config, trace, name))
        assert_matches_reference(config, trace, name, warmup=len(trace) // 3)


@pytest.mark.parametrize("name", ["stms", "digram", "domino"])
def test_metadata_traffic_nonnegative_and_plausible(name):
    config = small_test_config()
    trace = random_trace(seed=7)
    result = simulate_trace(trace, config, make_prefetcher(name, config))
    md = result.metadata
    assert md.index_reads >= result.metrics.misses * 0 and md.index_reads >= 0
    # Every miss triggers at least one index-row fetch.
    assert md.index_reads >= result.metrics.misses
    # HT writes happen once per row of recorded events.
    events = result.metrics.triggering_events
    assert md.history_writes <= events // config.ht_row_entries + 1


@pytest.mark.parametrize("name", ["domino", "stms", "vldp", "isb"])
def test_timing_identities(name):
    config = small_test_config()
    trace = random_trace(seed=13)
    sim = TimingSimulator(config, make_prefetcher(name, config))
    result = sim.run(trace)
    assert result.cycles > 0
    assert result.instructions == trace.instructions
    assert result.ipc <= config.issue_width + 1e-9
    assert result.late_prefetch_hits <= result.prefetch_hits
    assert result.memory_accesses + result.llc_hits <= (
        result.misses + result.prefetch_hits)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_domino_never_crashes_and_conserves(seed):
    config = small_test_config()
    trace = random_trace(seed=seed, n=800)
    result = simulate_trace(trace, config, make_prefetcher("domino", config))
    m = result.metrics
    assert m.accesses == m.l1_hits + m.misses + m.prefetch_hits
    assert m.prefetches_issued == m.prefetch_hits + m.overpredictions


def test_deterministic_across_runs():
    config = small_test_config()
    trace = random_trace(seed=21)
    a = simulate_trace(trace, config, make_prefetcher("domino", config))
    b = simulate_trace(trace, config, make_prefetcher("domino", config))
    assert a.metrics == b.metrics
