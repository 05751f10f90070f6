"""Trace-driven engine: coverage accounting, warm-up, stream feedback."""

import pytest

from repro.errors import SimulationError
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.stms import StmsPrefetcher
from repro.prefetchers.vldp import VldpPrefetcher
from repro.sim.engine import simulate_trace
from repro.sim.fastpath import build_l1_filter


class ScriptedPrefetcher(Prefetcher):
    """Issues a scripted candidate list on every miss (test double)."""

    name = "scripted"

    def __init__(self, config, script):
        super().__init__(config)
        self.script = dict(script)
        self.hits_seen: list[int] = []

    def on_miss(self, pc, block):
        return [(b, 0) for b in self.script.get(block, [])]

    def on_prefetch_hit(self, pc, block, stream_id):
        self.hits_seen.append(block)
        return []


class TestBasicAccounting:
    def test_baseline_counts_misses(self, config, trace_factory):
        trace = trace_factory([1, 2, 3, 1, 2, 3])
        result = simulate_trace(trace, config, NullPrefetcher(config))
        assert result.metrics.misses == 3
        assert result.metrics.l1_hits == 3
        assert result.coverage == 0.0

    def test_correct_prefetch_becomes_coverage(self, config, trace_factory):
        # Miss on 100 prefetches 200, which is demanded next.
        trace = trace_factory([100, 200])
        pf = ScriptedPrefetcher(config, {100: [200]})
        result = simulate_trace(trace, config, pf)
        assert result.metrics.prefetch_hits == 1
        assert result.metrics.misses == 1
        assert result.coverage == 0.5
        assert pf.hits_seen == [200]

    def test_wrong_prefetch_becomes_overprediction(self, config, trace_factory):
        trace = trace_factory([100, 300])
        pf = ScriptedPrefetcher(config, {100: [200]})
        result = simulate_trace(trace, config, pf)
        assert result.metrics.overpredictions == 1
        assert result.metrics.prefetch_hits == 0
        assert result.accuracy == 0.0

    def test_candidates_already_in_l1_are_not_issued(self, config, trace_factory):
        trace = trace_factory([200, 100, 300])
        pf = ScriptedPrefetcher(config, {100: [200]})
        result = simulate_trace(trace, config, pf)
        assert result.metrics.prefetches_issued == 0

    def test_duplicate_candidates_not_reissued(self, config, trace_factory):
        trace = trace_factory([100, 101, 999])
        pf = ScriptedPrefetcher(config, {100: [555], 101: [555]})
        result = simulate_trace(trace, config, pf)
        assert result.metrics.prefetches_issued == 1

    def test_accuracy_and_ratios_consistent(self, config, tiny_trace):
        result = simulate_trace(tiny_trace, config,
                                VldpPrefetcher(config, degree=2))
        m = result.metrics
        assert m.prefetch_hits + m.overpredictions == m.prefetches_issued
        assert 0.0 <= result.coverage <= 1.0
        assert m.accesses == len(tiny_trace)


class TestWarmup:
    def test_warmup_excluded_from_counters(self, config, tiny_trace):
        full = simulate_trace(tiny_trace, config, NullPrefetcher(config))
        warm = simulate_trace(tiny_trace, config, NullPrefetcher(config),
                              warmup=len(tiny_trace) // 2)
        assert warm.metrics.accesses == len(tiny_trace) - len(tiny_trace) // 2
        assert warm.metrics.misses < full.metrics.misses

    def test_warmup_improves_temporal_coverage(self, paper_config, tiny_trace):
        cold = simulate_trace(tiny_trace, paper_config,
                              StmsPrefetcher(paper_config))
        warm = simulate_trace(tiny_trace, paper_config,
                              StmsPrefetcher(paper_config),
                              warmup=len(tiny_trace) // 2)
        assert warm.coverage >= cold.coverage


class TestWarmupValidation:
    def test_negative_warmup_rejected(self, config, tiny_trace):
        with pytest.raises(SimulationError):
            simulate_trace(tiny_trace, config, warmup=-1)

    def test_whole_trace_warmup_rejected(self, config, tiny_trace):
        # Used to slip through silently: the reset at i == warmup never
        # fired and the "measured" counters included the training window.
        with pytest.raises(SimulationError):
            simulate_trace(tiny_trace, config, warmup=len(tiny_trace))

    def test_beyond_trace_warmup_rejected(self, config, tiny_trace):
        with pytest.raises(SimulationError):
            simulate_trace(tiny_trace, config, warmup=len(tiny_trace) + 1)

    def test_zero_warmup_on_empty_window_ok(self, config, trace_factory):
        result = simulate_trace(trace_factory([1, 2]), config, warmup=0)
        assert result.metrics.accesses == 2

    def test_max_valid_warmup_measures_one_access(self, config, tiny_trace):
        result = simulate_trace(tiny_trace, config,
                                warmup=len(tiny_trace) - 1)
        assert result.metrics.accesses == 1


class TestStreamFeedback:
    def test_killed_streams_drop_buffered_blocks(self, config, trace_factory):
        class KillingPrefetcher(ScriptedPrefetcher):
            def on_miss(self, pc, block):
                if block == 999:
                    self._kill_stream(0)
                    return []
                return super().on_miss(pc, block)

        trace = trace_factory([100, 999, 200])
        pf = KillingPrefetcher(config, {100: [200]})
        result = simulate_trace(trace, config, pf)
        # 200 was dropped by the kill, so its demand misses.
        assert result.metrics.prefetch_hits == 0
        assert result.metrics.overpredictions == 1


class TestMissStreamCollection:
    def test_collect_miss_stream_matches_baseline(self, config, trace_factory):
        # With no prefetcher every L1 miss is uncovered, so the baseline
        # miss stream is the filter's (pc, block) columns.
        trace = trace_factory([1, 2, 1, 2, 3], pcs=[9, 8, 9, 8, 7])
        filt = build_l1_filter(trace, config)
        stream = list(zip(filt.pcs.tolist(), filt.blocks.tolist()))
        assert stream == [(9, 1), (8, 2), (7, 3)]

    def test_simulation_result_summary(self, config, tiny_trace):
        result = simulate_trace(tiny_trace, config, NullPrefetcher(config))
        text = result.summary()
        assert "baseline" in text and "coverage" in text
