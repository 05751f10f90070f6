"""The per-access reference simulators: the oracles every bit-identity
pin of the two engines compares against.

Both engines replay the L1 misses of an L1 filter through one per-miss
event path (``repro.sim.engine.EventPath``).  The oracles here keep the
original per-access loops instead — one iteration per trace access,
with their own :class:`~repro.memory.cache.Cache` deciding every hit
and filtering every prefetch candidate:

* :class:`ReferenceSimulator` is the trace engine's oracle, with its own
  list of the uncovered misses.  ``TraceSimulator.run`` (which builds
  the filter from the trace) and ``TraceSimulator.run_filtered`` (which
  is handed one) must both return results equal to this loop's.
* :class:`ReferenceTimingSimulator` is the cycle model's oracle: one
  ``step`` per access, with a warm-up snapshot that is subtracted at
  the end, and :func:`reference_multicore` interleaves such cores one
  access at a time.  ``TimingSimulator.run`` and ``simulate_multicore``
  must equal them field for field.

:func:`reference_filter_rows` is the matching oracle for the filter
build: a list-per-set LRU model that shares no code with ``Cache``.
"""

import copy
import heapq
from collections import deque

from repro.config import CacheConfig, SystemConfig, small_test_config
from repro.memory.cache import Cache
from repro.memory.dram import BandwidthLedger, DramModel
from repro.memory.prefetch_buffer import PrefetchBuffer
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sim.engine import SimulationResult, TraceSimulator
from repro.sim.fastpath import L1Filter, build_l1_filter
from repro.sim.multicore import MulticoreResult
from repro.sim.timing import TimingResult
from repro.sim.trace import MemoryTrace, validate_warmup


def ways_config(ways: int) -> SystemConfig:
    """The small test config with an 8 KB L1 of ``ways`` ways."""
    return small_test_config(l1d=CacheConfig(8 * 1024, ways, hit_latency=2))


#: The test config's 2-way L1 plus ways 1 and 4 at the same 8 KB.  No
#: shipped config uses 1 or 4, and every build for them takes the
#: scalar pass, so pins over these cover both kernels.
L1_CONFIGS = [ways_config(ways) for ways in (2, 1, 4)]


class ReferenceSimulator(TraceSimulator):
    """Steps every access through ``self.l1``; same results as the engine.

    ``misses`` collects the ``(pc, block)`` of every uncovered miss
    after the warm-up: under a ``NullPrefetcher`` that is the baseline
    miss stream.
    """

    def __init__(self, config: SystemConfig,
                 prefetcher: Prefetcher | None = None) -> None:
        super().__init__(config, prefetcher)
        self.l1 = Cache(config.l1d)
        self.misses: list[tuple[int, int]] = []

    def run(self, trace: MemoryTrace, warmup: int = 0) -> SimulationResult:
        validate_warmup(warmup, len(trace))
        pcs, blocks = trace.pcs.tolist(), trace.blocks.tolist()
        prefetcher = self.prefetcher
        l1 = self.l1
        buffer = self.buffer
        for i, (pc, block) in enumerate(zip(pcs, blocks, strict=True)):
            if i == warmup and warmup > 0:
                self._reset_counters()
                self.misses.clear()
            metrics = self.metrics
            metrics.accesses += 1
            if l1.access(block):
                metrics.l1_hits += 1
                continue
            entry = buffer.lookup(block)
            if entry is not None:
                metrics.prefetch_hits += 1
                self._stream_useful[entry.stream_id] += 1
                candidates = prefetcher.on_prefetch_hit(pc, block, entry.stream_id)
            else:
                metrics.misses += 1
                self.misses.append((pc, block))
                candidates = prefetcher.on_miss(pc, block)
            for sid in prefetcher.take_killed_streams():
                buffer.invalidate_stream(sid)
            for cand_block, sid in candidates:
                if buffer.probe(cand_block) or l1.probe(cand_block):
                    continue
                metrics.prefetches_issued += 1
                self._streams_seen.add(sid)
                victim = buffer.insert(cand_block, sid)
                if victim is not None:
                    prefetcher.on_buffer_eviction(victim.block, victim.stream_id)
        return self._finalise(trace.name)


def reference_filter_rows(trace: MemoryTrace,
                          l1: CacheConfig) -> list[tuple[int, int, int, int]]:
    """``(index, pc, block, evicted)`` of every L1 miss of ``trace``.

    Each set is a plain list in recency order (least recent first), so
    a miss evicts ``lru[0]`` once the set holds ``ways`` blocks.
    """
    sets: list[list[int]] = [[] for _ in range(l1.n_sets)]
    rows = []
    pcs, blocks = trace.pcs.tolist(), trace.blocks.tolist()
    for i, (pc, block) in enumerate(zip(pcs, blocks, strict=True)):
        lru = sets[block % l1.n_sets]
        if block in lru:
            lru.remove(block)
            lru.append(block)
            continue
        victim = lru.pop(0) if len(lru) == l1.ways else -1
        lru.append(block)
        rows.append((i, pc, block, victim))
    return rows


def assert_matches_reference(config: SystemConfig, trace: MemoryTrace,
                             name: str, degree: int | None = None,
                             warmup: int = 0,
                             filt: L1Filter | None = None) -> SimulationResult:
    """Both engine entry points must equal the reference, bit for bit.

    Each run gets a fresh ``name`` prefetcher; ``filt`` (built from
    ``trace`` when omitted) feeds ``run_filtered``.  Returns the
    reference result for further checks.
    """
    def simulator(cls: type[TraceSimulator]) -> TraceSimulator:
        prefetcher = make_prefetcher(name, config, degree=degree)
        return cls(config, prefetcher)

    if filt is None:
        filt = build_l1_filter(trace, config)
    reference = simulator(ReferenceSimulator).run(trace, warmup=warmup)
    assert simulator(TraceSimulator).run(trace, warmup=warmup) == reference
    assert simulator(TraceSimulator).run_filtered(filt, warmup=warmup) == reference
    return reference


class ReferenceTimingSimulator:
    """Replays one trace on one core, one access per :meth:`step`."""

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher | None = None,
                 shared_llc: Cache | None = None,
                 shared_ledger: BandwidthLedger | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.l1 = Cache(config.l1d)
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.dram = DramModel(config, ledger=shared_ledger)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)

        self.now = 0.0
        self.inst_index = 0
        self._last_completion = 0.0
        self._outstanding: deque[tuple[float, int]] = deque()
        self._seen_streams: set[int] = set()
        self._md_reads = 0
        self._md_writes = 0
        self.result = TimingResult(workload="", prefetcher=self.prefetcher.name)

    def load(self, trace: MemoryTrace, warmup: int = 0) -> None:
        validate_warmup(warmup, len(trace))
        self._pcs, self._blocks = trace.pcs.tolist(), trace.blocks.tolist()
        self._deps, self._works = trace.deps.tolist(), trace.works.tolist()
        self._cursor = 0
        self._warmup_at = warmup
        self._warm_now = 0.0
        self._warm_counters: TimingResult | None = None
        self.result.workload = trace.name

    def done(self) -> bool:
        return self._cursor >= len(self._blocks)

    def finalise(self) -> TimingResult:
        while self._outstanding:
            completion, _ = self._outstanding.popleft()
            if completion > self.now:
                self.now = completion
            if completion > self._last_completion:
                self._last_completion = completion
        res = self.result
        if self._warm_counters is not None:
            warm = self._warm_counters
            for fname in ("instructions", "misses", "llc_hits",
                          "memory_accesses", "prefetch_hits",
                          "late_prefetch_hits", "prefetches_issued",
                          "prefetches_dropped"):
                setattr(res, fname, getattr(res, fname) - getattr(warm, fname))
        res.cycles = self.now - self._warm_now
        return res

    def step(self) -> None:
        i = self._cursor
        if i == self._warmup_at and i > 0:
            self._warm_counters = copy.copy(self.result)
            self._warm_now = self.now
        self._cursor += 1
        block = self._blocks[i]
        dep = self._deps[i]
        work = self._works[i]

        self.now += work / self.config.issue_width
        self.inst_index += work + 1
        self.result.instructions += work + 1
        self._retire(self.inst_index)

        if self.l1.access(block):
            return
        entry = self.buffer.lookup(block)
        if entry is not None:
            self._prefetch_hit(self._pcs[i], block, dep, entry)
        else:
            self._demand_miss(self._pcs[i], block, dep)

    def _prefetch_hit(self, pc: int, block: int, dep: int, entry) -> None:
        res = self.result
        res.prefetch_hits += 1
        if dep:
            self.now = max(self.now, self._last_completion)
        if entry.ready_time > self.now:
            completion = min(entry.ready_time,
                             self.now + self.config.memory_latency_cycles)
            res.late_prefetch_hits += 1
        else:
            completion = self.now + self.config.l1d.hit_latency
        if dep:
            self.now = completion
        else:
            self._outstanding.append((completion, self.inst_index))
            self._retire(self.inst_index)
        self._last_completion = completion
        candidates = self.prefetcher.on_prefetch_hit(pc, block, entry.stream_id)
        self._after_event(candidates)

    def _demand_miss(self, pc: int, block: int, dep: int) -> None:
        res = self.result
        res.misses += 1
        if dep:
            self.now = max(self.now, self._last_completion)
        if self.llc.access(block):
            res.llc_hits += 1
            completion = self.now + self.config.llc_latency_cycles
        else:
            res.memory_accesses += 1
            completion = self.dram.access(self.now, "demand")
        if dep:
            self.now = completion
        else:
            self._outstanding.append((completion, self.inst_index))
            self._retire(self.inst_index)
        self._last_completion = completion
        candidates = self.prefetcher.on_miss(pc, block)
        self._after_event(candidates)

    def _retire(self, inst_index: int) -> None:
        rob = self.config.rob_entries
        mshrs = self.config.l1_mshrs
        outstanding = self._outstanding
        while outstanding:
            completion, issued_at = outstanding[0]
            if completion <= self.now:
                outstanding.popleft()
                continue
            if inst_index - issued_at >= rob or len(outstanding) > mshrs:
                self.now = completion
                outstanding.popleft()
                continue
            break

    def _after_event(self, candidates) -> None:
        metadata = self.prefetcher.metadata
        for _ in range(metadata.reads - self._md_reads):
            self.dram.access(self.now, "metadata_read")
        for _ in range(metadata.writes - self._md_writes):
            self.dram.access(self.now, "metadata_write")
        self._md_reads = metadata.reads
        self._md_writes = metadata.writes

        for sid in self.prefetcher.take_killed_streams():
            self.buffer.invalidate_stream(sid)

        round_trip = self.config.memory_latency_cycles
        drop_backlog = (self.config.prefetch_drop_backlog_blocks
                        * self.config.cycles_per_block_transfer)
        for block, sid in candidates:
            if self.buffer.probe(block) or self.l1.probe(block):
                continue
            if self.dram.ledger.backlog(self.now) > drop_backlog:
                self.result.prefetches_dropped += 1
                continue
            if sid not in self._seen_streams:
                self._seen_streams.add(sid)
                metadata_delay = self.prefetcher.first_prefetch_round_trips * round_trip
            else:
                metadata_delay = 0.0
            if self.llc.probe(block):
                self.llc.access(block)
                ready = self.now + metadata_delay + self.config.llc_latency_cycles
            else:
                ready = self.dram.access(self.now, "prefetch_useful") + metadata_delay
            self.result.prefetches_issued += 1
            victim = self.buffer.insert(block, sid, ready_time=ready)
            if victim is not None:
                self.prefetcher.on_buffer_eviction(victim.block, victim.stream_id)

    def run(self, trace: MemoryTrace, warmup: int = 0) -> TimingResult:
        self.load(trace, warmup)
        while not self.done():
            self.step()
        return self.finalise()


def reference_multicore(traces: list[MemoryTrace], config: SystemConfig,
                        prefetcher_name: str = "baseline",
                        warmup_frac: float = 0.5,
                        **prefetcher_kwargs) -> MulticoreResult:
    """``simulate_multicore`` over :class:`ReferenceTimingSimulator`
    cores: the core with the smallest clock advances one access."""
    shared_llc = Cache(config.llc)
    shared_ledger = BandwidthLedger(config.cycles_per_block_transfer)
    cores = []
    for core_trace in traces:
        sim = ReferenceTimingSimulator(
            config, make_prefetcher(prefetcher_name, config, **prefetcher_kwargs),
            shared_llc=shared_llc, shared_ledger=shared_ledger)
        sim.load(core_trace, warmup=int(len(core_trace) * warmup_frac))
        cores.append(sim)
    heap = [(sim.now, idx) for idx, sim in enumerate(cores) if not sim.done()]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        sim = cores[idx]
        sim.step()
        if not sim.done():
            heapq.heappush(heap, (sim.now, idx))
    result = MulticoreResult(workload=traces[0].name,
                             prefetcher=cores[0].prefetcher.name)
    for sim in cores:
        result.per_core.append(sim.finalise())
    result.bandwidth_utilization = shared_ledger.utilization(
        max(sim.now for sim in cores))
    return result
