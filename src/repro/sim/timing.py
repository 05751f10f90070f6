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

from ..cancel import NEVER
from ..config import SystemConfig
from ..errors import SimulationError
from ..memory.cache import Cache
from ..memory.dram import BandwidthLedger, DramModel
from ..memory.prefetch_buffer import BufferEntry
from ..prefetchers.base import Prefetcher
from .engine import EventPath
from .fastpath import build_l1_filter
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


class TimingSimulator(EventPath):
    """Replays one trace on one core with cycle accounting: the trace's
    L1 misses run the engine's :class:`~repro.sim.engine.EventPath`, and
    its hooks and the hit runs between misses move the clock, one access
    at a time in MODEL.md §2's order (every float must match the
    per-access oracle in ``tests/sim/reference.py``)."""

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher | None = None,
                 shared_llc: Cache | None = None,
                 shared_ledger: BandwidthLedger | None = None) -> None:
        super().__init__(config, prefetcher)
        #: Shared between cores in the multicore model (capacity
        #: contention); prefetches never install into it.
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.dram = DramModel(config, ledger=shared_ledger)
        self._ledger = self.dram.ledger
        self._width = config.issue_width
        self._rob = config.rob_entries
        self._mshrs = config.l1_mshrs
        self._memory_latency = config.memory_latency_cycles
        self._llc_latency = config.llc_latency_cycles
        self._l1_hit_latency = config.l1d.hit_latency
        self._drop_backlog = (config.prefetch_drop_backlog_blocks
                              * config.cycles_per_block_transfer)
        self._first_prefetch_delay = (self.prefetcher.first_prefetch_round_trips
                                      * self._memory_latency)

        self.now = 0.0
        self.inst_index = 0
        self._last_completion = 0.0
        #: (completion_cycle, instruction_index) of outstanding misses.
        self._outstanding: deque[tuple[float, int]] = deque()
        #: Streams that issued a prefetch since the start of the trace
        #: (warm-up included): the first-prefetch delay is per stream.
        self._seen_streams: set[int] = set()
        #: Metadata transfers (reads and writes) charged to the channel.
        self._md_charged = 0
        self.result = TimingResult(workload="", prefetcher=self.prefetcher.name)

    # -- public driving interface (multicore interleaves step calls) -----
    def load(self, trace: MemoryTrace, warmup: int = 0) -> None:
        """Build ``trace``'s L1 filter; the leading ``warmup`` accesses
        will be excluded from the result."""
        validate_warmup(warmup, len(trace))
        self._rows = build_l1_filter(trace, self.config).replay_rows()
        self._row = next(self._rows, None)
        self._works = trace.works.tolist()
        self._deps = trace.deps.tolist()
        self._n_accesses = len(trace)
        self._reset_at = warmup if warmup else NEVER
        self._warm_now = 0.0
        self._warm_inst = 0
        self.result.workload = trace.name
        self._open_events()

    def done(self) -> bool:
        return self._row is None

    def finalise(self) -> TimingResult:
        """Close the measurement window.

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
        self._close_events(self._n_accesses)
        res = self.result
        res.cycles = self.now - self._warm_now
        res.instructions = self.inst_index - self._warm_inst
        return res

    def step(self) -> None:
        """Process one L1 miss, then the hits up to the next miss (the
        first access always misses the cold L1, so the steps cover every
        access)."""
        row = self._row
        if row is None:
            raise SimulationError("step() past the end of the trace")
        i, pc, block, victim_block = row
        self._row = row = next(self._rows, None)
        stop = row[0] if row is not None else self._n_accesses
        # The miss's own access issues first; a warm-up that opens on
        # it resets the counters before it.
        if i == self._reset_at:
            self._reset_counters()
        work = self._works[i]
        self.inst_index = inst = self.inst_index + work + 1
        now = self.now + work / self._width
        if self._outstanding:
            now = self._retire(inst, now)
        self.now = now
        self._on_l1_miss(i, pc, block, victim_block)
        if i + 1 < stop:
            self._work(i + 1, stop)

    def _work(self, start: int, stop: int) -> None:
        """Issue the instructions of the hits ``start..stop-1``, one
        access at a time, starting the measured window at ``warmup``."""
        reset_at = self._reset_at
        if start <= reset_at < stop:
            self._work(start, reset_at)
            self._reset_counters()
            start = reset_at
        works = self._works
        width = self._width
        outstanding = self._outstanding
        retire = self._retire
        now = self.now
        inst = self.inst_index
        for k in range(start, stop):
            work = works[k]
            now += work / width
            inst += work + 1
            if outstanding:
                now = retire(inst, now)
        self.now = now
        self.inst_index = inst

    def _reset_counters(self) -> None:
        """Forget the counters, keep all simulated state (the prefetcher's
        metadata counters and the seen-stream set included)."""
        self.result = TimingResult(workload=self.result.workload,
                                   prefetcher=self.result.prefetcher)
        self._warm_now = self.now
        self._warm_inst = self.inst_index
        self._reset_at = NEVER

    # -- the event path's hooks ----------------------------------------------
    def _account_demand(self, i: int, block: int,
                        entry: BufferEntry | None) -> None:
        """The demand's cycles, then the metadata its training moved."""
        res = self.result
        now = self.now
        dep = self._deps[i]
        if dep:
            now = max(now, self._last_completion)
        if entry is not None:
            res.prefetch_hits += 1
            if entry.ready_time > now:
                # Late prefetch: the remaining latency behaves like a
                # shortened miss — a dependent access stalls for it, an
                # independent one overlaps it in the ROB window.  The
                # demand merges with the in-flight prefetch and promotes
                # it to demand priority, so the wait never exceeds a
                # fresh fetch.
                completion = min(entry.ready_time, now + self._memory_latency)
                res.late_prefetch_hits += 1
            else:
                # Timely prefetch hit: the block is in the buffer, so
                # the access costs an L1-hit latency like any other
                # completed load.
                completion = now + self._l1_hit_latency
        elif self.llc.access(block):
            res.misses += 1
            res.llc_hits += 1
            completion = now + self._llc_latency
        else:
            res.misses += 1
            res.memory_accesses += 1
            completion = self.dram.access(now)
        if dep:
            # Pointer chase: the core cannot proceed without the data.
            now = completion
        else:
            self._outstanding.append((completion, self.inst_index))
            now = self._retire(self.inst_index, now)
        self._last_completion = completion
        self.now = now

        # Charge new metadata transfers against the shared channel.
        # Reads and writes are the same prefetch-class request at the
        # same cycle, so one count of both suffices.
        metadata = self.prefetcher.metadata
        charged = (metadata.index_reads + metadata.history_reads
                   + metadata.index_writes + metadata.history_writes)
        if charged != self._md_charged:
            request = self._ledger.request
            for _ in range(charged - self._md_charged):
                request(now, False)  # prefetch class
            self._md_charged = charged

    def _issue(self, block: int, stream_id: int) -> float | None:
        """Shed the prefetch under backlog, else its arrival cycle."""
        now = self.now
        if self._ledger.backlog(now) > self._drop_backlog:
            # Channel saturated: shed the prefetch rather than queue it
            # behind an unbounded backlog.
            self.result.prefetches_dropped += 1
            return None
        if stream_id not in self._seen_streams:
            self._seen_streams.add(stream_id)
            metadata_delay = self._first_prefetch_delay
        else:
            metadata_delay = 0.0
        # The serialised metadata round trips delay the block's arrival;
        # the channel occupancy itself is charged at issue time so the
        # single-server queue sees arrivals in order.  An LLC hit moves
        # the block to MRU there; a miss is served from memory and
        # fills nothing.
        if self.llc.touch(block):
            ready = now + metadata_delay + self._llc_latency
        else:
            ready = self.dram.access(now, demand=False) + metadata_delay
        self.result.prefetches_issued += 1
        return ready

    def _retire(self, inst_index: int, now: float) -> float:
        """Stall when the ROB window or MSHR file is exhausted; returns
        the clock ``now`` advanced past the stalls."""
        rob = self._rob
        mshrs = self._mshrs
        outstanding = self._outstanding
        while outstanding:
            completion, issued_at = outstanding[0]
            if completion <= now:
                outstanding.popleft()
                continue
            if inst_index - issued_at >= rob or len(outstanding) > mshrs:
                now = completion
                outstanding.popleft()
                continue
            break
        return now

    # -- one-shot convenience -----------------------------------------------
    def run(self, trace: MemoryTrace, warmup: int = 0) -> TimingResult:
        """Replay the whole trace; the leading ``warmup`` accesses train
        caches and metadata but are excluded from the result."""
        self.load(trace, warmup)
        while not self.done():
            self.step()
        return self.finalise()
