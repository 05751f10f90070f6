"""Simplified cycle-accounting timing model (the Fig. 14 substrate).

This replaces the paper's Flexus full-system timing simulation with a
per-core replay model that captures the effects the Fig. 14 results
hinge on:

* **Out-of-order overlap (MLP)** — independent misses overlap inside a
  128-entry ROB window bounded by the L1 MSHR count; *dependent*
  (pointer-chase) misses serialise behind the previous memory
  operation.  Workloads with high MLP (Web Search, Media Streaming)
  therefore gain little from coverage, exactly as Section V-C observes.
* **Prefetch timeliness** — a prefetched block only hides the full miss
  latency if it arrived before the demand access; late prefetches
  shorten rather than eliminate the stall.  The first prefetch of a new
  stream is delayed by the prefetcher's serialised metadata round
  trips: two for STMS/Digram, one for Domino (Fig. 6), zero for the
  on-chip designs.
* **Shared bandwidth** — every off-chip transfer (demand, prefetch,
  metadata read/write) occupies the shared 37.5 GB/s channel, so
  overpredicting prefetchers pay queueing delays.

Performance is reported as instructions per cycle over the measured
region (the paper's "application instructions over total cycles" system
throughput metric).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..config import SystemConfig
from ..memory.cache import Cache
from ..memory.dram import BandwidthLedger, DramModel
from ..memory.prefetch_buffer import PrefetchBuffer
from ..prefetchers.base import NullPrefetcher, Prefetcher
from .trace import MemoryTrace, validate_warmup


@dataclass
class TimingResult:
    """Cycle-model measurements for one core."""

    workload: str
    prefetcher: str
    cycles: float = 0.0
    instructions: int = 0
    misses: int = 0
    llc_hits: int = 0
    memory_accesses: int = 0
    prefetch_hits: int = 0
    late_prefetch_hits: int = 0
    prefetches_issued: int = 0
    prefetches_dropped: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def timeliness(self) -> float:
        """Fraction of prefetch hits that were fully timely."""
        if not self.prefetch_hits:
            return 0.0
        return 1.0 - self.late_prefetch_hits / self.prefetch_hits


class TimingSimulator:
    """Replays one trace on one core with cycle accounting."""

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher | None = None,
                 shared_llc: Cache | None = None,
                 shared_ledger: BandwidthLedger | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.l1 = Cache(config.l1d)
        #: Shared between cores in the multicore model (capacity
        #: contention); prefetches never install into it.
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.dram = DramModel(config, ledger=shared_ledger)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)

        self.now = 0.0
        self.inst_index = 0
        self._last_completion = 0.0
        #: (completion_cycle, instruction_index) of outstanding misses.
        self._outstanding: deque[tuple[float, int]] = deque()
        self._seen_streams: set[int] = set()
        self._md_reads = 0
        self._md_writes = 0
        self.result = TimingResult(workload="", prefetcher=self.prefetcher.name)

    # -- public driving interface (multicore interleaves step calls) -----
    def load(self, trace: MemoryTrace, warmup: int = 0) -> None:
        validate_warmup(warmup, len(trace))
        self._pcs, self._blocks, self._deps, self._works = trace.as_lists()
        self._cursor = 0
        self._warmup_at = warmup
        self._warm_now = 0.0
        self._warm_counters: TimingResult | None = None
        self.result.workload = trace.name

    def done(self) -> bool:
        return self._cursor >= len(self._blocks)

    def mark_measurement_start(self) -> None:
        """Snapshot counters so warm-up is excluded from the result."""
        import copy

        self._warm_counters = copy.copy(self.result)
        self._warm_now = self.now

    def finalise(self) -> TimingResult:
        """Close the measurement window (subtracting any warm-up).

        Misses still in flight at trace end are part of the measured
        region — the program has not finished until its last fill
        returns — so the clock is first advanced to the latest
        outstanding completion.  Idempotent: the drain empties the
        queue, so a second call changes nothing.
        """
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
        """Process one memory access (plus the work preceding it)."""
        i = self._cursor
        if i == self._warmup_at and i > 0:
            self.mark_measurement_start()
        self._cursor += 1
        block = self._blocks[i]
        dep = self._deps[i]
        work = self._works[i]

        # Non-memory instructions issue at full width.
        self.now += work / self.config.issue_width
        self.inst_index += work + 1
        self.result.instructions += work + 1
        self._retire(self.inst_index)

        if self.l1.access(block):
            return  # L1 hit: latency hidden by the pipeline

        entry = self.buffer.lookup(block)
        if entry is not None:
            self._prefetch_hit(self._pcs[i], block, dep, entry)
        else:
            self._demand_miss(self._pcs[i], block, dep)

    # -- access handling ---------------------------------------------------
    def _prefetch_hit(self, pc: int, block: int, dep: int, entry) -> None:
        res = self.result
        res.prefetch_hits += 1
        if dep:
            self.now = max(self.now, self._last_completion)
        if entry.ready_time > self.now:
            # Late prefetch: the remaining latency behaves like a
            # shortened miss — a dependent access stalls for it, an
            # independent one overlaps it in the ROB window.  The demand
            # merges with the in-flight prefetch and promotes it to
            # demand priority, so the wait never exceeds a fresh fetch.
            completion = min(entry.ready_time,
                             self.now + self.config.memory_latency_cycles)
            res.late_prefetch_hits += 1
            if dep:
                self.now = completion
            else:
                self._outstanding.append((completion, self.inst_index))
                self._retire(self.inst_index)
        else:
            # Timely prefetch hit: the block is in the buffer, so the
            # access costs an L1-hit latency — dependent accesses stall
            # for it, independent ones carry it in the ROB window just
            # like any other completed load.
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
            # Pointer chase: the core cannot proceed without the data.
            self.now = completion
        else:
            self._outstanding.append((completion, self.inst_index))
            self._retire(self.inst_index)
        self._last_completion = completion
        candidates = self.prefetcher.on_miss(pc, block)
        self._after_event(candidates)

    def _retire(self, inst_index: int) -> None:
        """Stall when the ROB window or MSHR file is exhausted."""
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

    # -- prefetch issue ---------------------------------------------------
    def _after_event(self, candidates) -> None:
        # Charge new metadata transfers against the shared channel.
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
                # Channel saturated: shed the prefetch rather than queue
                # it behind an unbounded backlog.
                self.result.prefetches_dropped += 1
                continue
            if sid not in self._seen_streams:
                self._seen_streams.add(sid)
                metadata_delay = self.prefetcher.first_prefetch_round_trips * round_trip
            else:
                metadata_delay = 0.0
            # The serialised metadata round trips delay the block's
            # arrival; the channel occupancy itself is charged at issue
            # time so the single-server queue sees arrivals in order.
            if self.llc.probe(block):
                self.llc.access(block)  # LRU touch; no fill on a miss
                ready = self.now + metadata_delay + self.config.llc_latency_cycles
            else:
                ready = self.dram.access(self.now, "prefetch_useful") + metadata_delay
            self.result.prefetches_issued += 1
            victim = self.buffer.insert(block, sid, ready_time=ready)
            if victim is not None:
                self.prefetcher.on_buffer_eviction(
                    victim.block, victim.stream_id, victim.used)

    # -- one-shot convenience -----------------------------------------------
    def run(self, trace: MemoryTrace, warmup_frac: float = 0.0) -> TimingResult:
        """Replay the whole trace; optionally exclude a leading warm-up
        fraction from the reported instruction/cycle counts."""
        self.load(trace, warmup=int(len(trace) * warmup_frac))
        while not self.done():
            self.step()
        return self.finalise()
