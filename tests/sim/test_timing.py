"""Cycle-accounting timing model tests."""

import pytest

from repro.config import small_test_config, timing_config
from repro.errors import SimulationError
from repro.memory.cache import Cache
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import TimingSimulator
from repro.workloads.suite import WorkloadSuite


class OneShotPrefetcher(Prefetcher):
    """Prefetches a fixed block on the first miss only."""

    name = "oneshot"
    first_prefetch_round_trips = 0

    def __init__(self, config, target):
        super().__init__(config)
        self.target = target
        self.fired = False

    def on_miss(self, pc, block):
        if self.fired:
            return []
        self.fired = True
        return [(self.target, 0)]


class NextBlocksPrefetcher(Prefetcher):
    """Prefetches the ``degree`` blocks after every miss."""

    name = "nextblocks"

    def on_miss(self, pc, block):
        return [(block + i, 0) for i in range(1, self.degree + 1)]


class TestBaselineTiming:
    def test_all_hits_run_at_issue_width(self, config, trace_factory):
        # Same block over and over: one cold miss, then L1 hits.
        trace = trace_factory([5] * 100, works=[4] * 100)
        sim = TimingSimulator(config, NullPrefetcher(config))
        result = sim.run(trace)
        # 500 instructions at width 4 plus one memory stall.
        assert result.cycles < 500 / 4 + 2 * config.memory_latency_cycles
        assert result.misses == 1

    def test_dependent_misses_serialise(self, config, trace_factory):
        blocks = [i * 64 for i in range(50)]  # all distinct, all miss
        dep_trace = trace_factory(blocks, deps=[1] * 50)
        indep_trace = trace_factory(blocks, deps=[0] * 50)
        dep = TimingSimulator(config, NullPrefetcher(config)).run(dep_trace)
        indep = TimingSimulator(config, NullPrefetcher(config)).run(indep_trace)
        assert dep.cycles > indep.cycles * 1.5

    def test_rob_limits_overlap(self, trace_factory):
        small_rob = small_test_config(rob_entries=2)
        big_rob = small_test_config(rob_entries=512)
        blocks = [i * 64 for i in range(60)]
        trace = trace_factory(blocks, works=[0] * 60)
        slow = TimingSimulator(small_rob, NullPrefetcher(small_rob)).run(trace)
        fast = TimingSimulator(big_rob, NullPrefetcher(big_rob)).run(trace)
        assert slow.cycles > fast.cycles

    def test_mshrs_limit_overlap(self, trace_factory):
        one_mshr = small_test_config(l1_mshrs=1)
        many = small_test_config(l1_mshrs=32)
        blocks = [i * 64 for i in range(60)]
        trace = trace_factory(blocks, works=[0] * 60)
        slow = TimingSimulator(one_mshr).run(trace)
        fast = TimingSimulator(many).run(trace)
        assert slow.cycles > fast.cycles

    def test_instructions_counted(self, config, trace_factory):
        trace = trace_factory([1, 2], works=[10, 20])
        result = TimingSimulator(config, NullPrefetcher(config)).run(trace)
        assert result.instructions == 32


class TestPrefetchTiming:
    def test_timely_prefetch_hides_latency(self, config, trace_factory):
        # Access A, lots of work, then B: the prefetch arrives in time.
        trace = trace_factory([100, 200], works=[0, 4000], deps=[0, 1])
        with_pf = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        without = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory([100, 200], works=[0, 4000], deps=[0, 1]))
        assert with_pf.prefetch_hits == 1
        assert with_pf.late_prefetch_hits == 0
        assert with_pf.cycles < without.cycles

    def test_late_prefetch_still_partially_helps(self, config, trace_factory):
        # B demanded immediately after A: the prefetch is in flight.
        trace = trace_factory([100, 200], works=[0, 0], deps=[0, 1])
        result = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        assert result.prefetch_hits == 1
        assert result.late_prefetch_hits == 1

    def test_late_hit_never_worse_than_fresh_fetch(self, config, trace_factory):
        trace = trace_factory([100, 200], works=[0, 0], deps=[1, 1])
        with_pf = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        without = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory([100, 200], works=[0, 0], deps=[1, 1]))
        assert with_pf.cycles <= without.cycles + 1

    def test_metadata_round_trips_delay_first_prefetch(self, config, trace_factory):
        class SlowMetadata(OneShotPrefetcher):
            first_prefetch_round_trips = 2

        # Enough work to hide one round trip but not three.
        trace = trace_factory([100, 200], works=[0, 800], deps=[0, 1])
        fast = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        slow = TimingSimulator(config, SlowMetadata(config, 200)).run(
            trace_factory([100, 200], works=[0, 800], deps=[0, 1]))
        assert slow.cycles >= fast.cycles

    def test_prefetch_dropped_under_backlog(self, trace_factory):
        config = small_test_config(prefetch_drop_backlog_blocks=1)
        blocks = list(range(0, 6400, 64))
        trace = trace_factory(blocks, works=[0] * len(blocks))
        sim = TimingSimulator(config, NextBlocksPrefetcher(config, degree=4))
        result = sim.run(trace)
        assert result.prefetches_dropped > 0


class TestOutstandingDrain:
    """finalise() must wait for in-flight misses (cycle undercount fix)."""

    def test_single_independent_miss_accrues_latency(self, config, trace_factory):
        # One independent miss and nothing after it: before the drain
        # fix the clock never advanced past the (tiny) issue time and
        # the miss contributed zero cycles.
        trace = trace_factory([100])
        result = TimingSimulator(config, NullPrefetcher(config)).run(trace)
        assert result.cycles >= config.memory_latency_cycles

    def test_trace_ending_in_misses_accrues_latency(self, config, trace_factory):
        blocks = [i * 64 for i in range(10)]
        indep = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory(blocks, deps=[0] * 10))
        dep = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory(blocks, deps=[1] * 10))
        # Independent misses overlap but the last one must still finish;
        # dependent ones serialise to at least as many cycles.
        assert indep.cycles >= config.memory_latency_cycles
        assert dep.cycles >= indep.cycles

    def test_overlapped_tail_cheaper_than_serialised_tail(self, config,
                                                          trace_factory):
        # The drain waits for the *last* completion, not the sum: a
        # burst of independent trailing misses still overlaps.
        n = 8
        blocks = [i * 64 for i in range(n)]
        result = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory(blocks, deps=[0] * n))
        assert result.cycles < n * config.memory_latency_cycles

    def test_finalise_idempotent(self, config, trace_factory):
        sim = TimingSimulator(config, NullPrefetcher(config))
        sim.load(trace_factory([100, 200, 300]))
        while not sim.done():
            sim.step()
        first = sim.finalise().cycles
        assert sim.finalise().cycles == first
        assert not sim._outstanding

    def test_step_past_end_rejected(self, config, trace_factory):
        sim = TimingSimulator(config, NullPrefetcher(config))
        sim.load(trace_factory([100, 100, 200]))
        while not sim.done():
            sim.step()
        with pytest.raises(SimulationError):
            sim.step()


class TestTimelyIndependentPrefetchHit:
    """A timely prefetch hit costs the L1 hit latency on every path."""

    def test_independent_hit_charged_hit_latency(self, config, trace_factory):
        # Access 100 (miss, prefetches 200), long work gap, then an
        # *independent* access to 200: a timely buffer hit.  Before the
        # fix its completion was computed and dropped, making it free.
        pf_trace = trace_factory([100, 200], works=[0, 4000], deps=[0, 0])
        hit_trace = trace_factory([100, 100], works=[0, 4000], deps=[0, 0])
        with_pf = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(pf_trace)
        l1_hit = TimingSimulator(config, NullPrefetcher(config)).run(hit_trace)
        assert with_pf.prefetch_hits == 1
        assert with_pf.late_prefetch_hits == 0
        assert with_pf.cycles - l1_hit.cycles == pytest.approx(
            config.l1d.hit_latency)

    def test_dependent_and_independent_hits_cost_the_same(self, config,
                                                          trace_factory):
        dep = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(
            trace_factory([100, 200], works=[0, 4000], deps=[0, 1]))
        indep = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(
            trace_factory([100, 200], works=[0, 4000], deps=[0, 0]))
        assert dep.prefetch_hits == indep.prefetch_hits == 1
        assert indep.cycles == pytest.approx(dep.cycles)


class TestLlc:
    """Where an L1 miss is served: the private L1 over a shared LLC."""

    def test_l1_victim_still_in_llc_is_llc_hit(self, config, trace_factory):
        # Block 0, then enough blocks in its L1 set to evict it, then 0.
        n_sets, ways = config.l1d.n_sets, config.l1d.ways
        blocks = [0] + [i * n_sets for i in range(1, ways + 1)] + [0]
        result = TimingSimulator(config).run(trace_factory(blocks))
        assert result.misses == ways + 2
        assert result.llc_hits == 1
        assert result.memory_accesses == ways + 1

    def test_cores_share_llc_contents(self, config, trace_factory):
        shared = Cache(config.llc)
        core0 = TimingSimulator(config, shared_llc=shared)
        core1 = TimingSimulator(config, shared_llc=shared)
        core0.run(trace_factory([42]))
        # Core 1 misses its private L1 but hits what core 0 fetched.
        result = core1.run(trace_factory([42]))
        assert (result.llc_hits, result.memory_accesses) == (1, 0)

    def test_prefetch_from_memory_not_installed_in_llc(self, config,
                                                       trace_factory):
        sim = TimingSimulator(config, OneShotPrefetcher(config, 200))
        result = sim.run(trace_factory([100]))
        assert result.prefetches_issued == 1
        assert not sim.llc.probe(200)
        assert sim.llc.probe(100)

    def test_prefetch_of_llc_resident_block_served_at_llc_latency(
            self, config, trace_factory):
        class OnBlock100(OneShotPrefetcher):
            def on_miss(self, pc, block):
                return super().on_miss(pc, block) if block == 100 else []

        n_sets = config.l1d.n_sets
        # 200 is fetched, then evicted from the L1 (not the LLC); the
        # miss on 100 prefetches it.  100 cycles of work later the LLC
        # copy has arrived, while a memory fetch would still be in flight.
        evict = [200 + n_sets, 200 + 2 * n_sets]
        works = [0] * 3 + [400]
        llc = TimingSimulator(config, OnBlock100(config, 200)).run(
            trace_factory([200] + evict + [100, 200], works=[0] + works))
        memory = TimingSimulator(config, OnBlock100(config, 200)).run(
            trace_factory(evict + [100, 200], works=works))
        assert (llc.prefetch_hits, llc.late_prefetch_hits) == (1, 0)
        assert (memory.prefetch_hits, memory.late_prefetch_hits) == (1, 1)

    def test_prefetch_hit_block_then_hits_l1(self, config, trace_factory):
        # The demand access that found 200 in the buffer allocated it in
        # the L1, so the next access to 200 is an L1 hit.
        trace = trace_factory([100, 200, 200], works=[0, 4000, 0])
        result = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        assert (result.misses, result.prefetch_hits) == (1, 1)


class TestWarmupWindow:
    def test_warmup_excluded(self, config, tiny_trace):
        full = TimingSimulator(config, NullPrefetcher(config)).run(tiny_trace)
        windowed = TimingSimulator(config, NullPrefetcher(config)).run(
            tiny_trace, warmup=len(tiny_trace) // 2)
        assert windowed.instructions < full.instructions
        assert 0 < windowed.cycles < full.cycles

    def test_ipc_positive(self, config, tiny_trace):
        result = TimingSimulator(config, NullPrefetcher(config)).run(tiny_trace)
        assert result.ipc > 0


class TestWarmupValidation:
    """The timing model rejects the windows the trace engine rejects."""

    def test_negative_warmup_rejected(self, config, tiny_trace):
        with pytest.raises(SimulationError):
            TimingSimulator(config).run(tiny_trace, warmup=-1)

    def test_whole_trace_warmup_rejected(self, config, tiny_trace):
        # The reset at i == warmup would never fire, so the result
        # would silently include the warm-up window.
        with pytest.raises(SimulationError):
            TimingSimulator(config).run(tiny_trace, warmup=len(tiny_trace))
        with pytest.raises(SimulationError):
            simulate_multicore([tiny_trace] * config.n_cores, config,
                               "baseline", warmup_frac=1.0)

    def test_beyond_trace_warmup_rejected(self, config, tiny_trace):
        with pytest.raises(SimulationError):
            TimingSimulator(config).load(tiny_trace, warmup=len(tiny_trace) + 1)


#: Per-core ``TimingResult`` fields of ``simulate_multicore`` under
#: ``timing_config()`` on 3000-access core traces (suite seed 1234,
#: default warm-up), as (bandwidth_utilization, per-core rows).  Floats
#: are ``float.hex`` strings so the pin is exact.  A change that moves
#: any of these changes the cycle model's accounting and must say so.
PINNED_FIELDS = ("cycles", "instructions", "misses", "llc_hits",
                 "memory_accesses", "prefetch_hits", "late_prefetch_hits",
                 "prefetches_issued", "prefetches_dropped")
PINNED = {
    ("oltp", "baseline"): ("0x1.0c1a76d5ac0fdp-3", [
        ("0x1.644b6740da66fp+17", 76722, 1310, 440, 870, 0, 0, 0, 0),
        ("0x1.6bb08888887afp+17", 76206, 1350, 461, 889, 0, 0, 0, 0),
        ("0x1.7385f2c5f91efp+17", 76546, 1373, 460, 913, 0, 0, 0, 0),
        ("0x1.686b9f258be5fp+17", 76862, 1341, 468, 873, 0, 0, 0, 0),
    ]),
    ("oltp", "stms"): ("0x1.83ceda7fa7f1fp-2", [
        ("0x1.5f2648f5c280fp+17", 76722, 1298, 445, 853, 12, 6, 83, 0),
        ("0x1.64e30fc962edfp+17", 76206, 1330, 449, 881, 20, 7, 73, 0),
        ("0x1.71dc8f5c28e6fp+17", 76546, 1371, 451, 920, 2, 0, 38, 0),
        ("0x1.649bf62fc954fp+17", 76862, 1331, 465, 866, 10, 4, 43, 0),
    ]),
    ("oltp", "domino"): ("0x1.7e73006a52852p-2", [
        ("0x1.652dbc28f5b4fp+17", 76722, 1307, 436, 871, 3, 2, 14, 0),
        ("0x1.6a11281b4e73fp+17", 76206, 1330, 456, 874, 20, 9, 34, 0),
        ("0x1.763ff40da732fp+17", 76546, 1368, 458, 910, 5, 1, 21, 0),
        ("0x1.6b042e147ad3fp+17", 76862, 1330, 458, 872, 11, 5, 31, 0),
    ]),
    ("media_streaming", "baseline"): ("0x1.943e4135df43bp-2", [
        ("0x1.00f6606d39cc1p+16", 26512, 1299, 339, 960, 0, 0, 0, 0),
        ("0x1.025e599999601p+16", 26143, 1341, 357, 984, 0, 0, 0, 0),
        ("0x1.0036efc962c41p+16", 26172, 1312, 308, 1004, 0, 0, 0, 0),
        ("0x1.f360777777042p+15", 24487, 1291, 301, 990, 0, 0, 0, 0),
    ]),
    ("media_streaming", "stms"): ("0x1.0000000000000p+0", [
        ("0x1.f2830bf25843ep+15", 26512, 1278, 321, 957, 21, 18, 32, 0),
        ("0x1.f23228f5c217ep+15", 26143, 1292, 327, 965, 49, 37, 67, 0),
        ("0x1.f12e369d02f3ep+15", 26172, 1287, 297, 990, 25, 21, 35, 0),
        ("0x1.dcabe147ad9fep+15", 24487, 1255, 272, 983, 36, 25, 49, 4),
    ]),
    ("media_streaming", "domino"): ("0x1.0000000000000p+0", [
        ("0x1.03d557e4b1420p+16", 26512, 1277, 329, 948, 22, 19, 27, 0),
        ("0x1.072370a3d6d00p+16", 26143, 1310, 344, 966, 31, 23, 37, 0),
        ("0x1.01ea4444440c0p+16", 26172, 1296, 305, 991, 16, 16, 25, 0),
        ("0x1.f6b153a06cc80p+15", 24487, 1269, 287, 982, 22, 13, 29, 0),
    ]),
}


def test_outputs_pinned():
    config = timing_config()
    suite = WorkloadSuite(seed=1234)
    for (workload, prefetcher), (util, cores) in PINNED.items():
        traces = suite.core_traces(workload, 3000, n_cores=config.n_cores)
        result = simulate_multicore(traces, config, prefetcher)
        got = [(float.hex(core.cycles),)
               + tuple(getattr(core, f) for f in PINNED_FIELDS[1:])
               for core in result.per_core]
        assert got == cores, (workload, prefetcher)
        assert float.hex(result.bandwidth_utilization) == util, (workload, prefetcher)
