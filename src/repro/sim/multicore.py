"""Quad-core timing simulation (the Fig. 14 configuration).

Four cores, each replaying its own trace, run over a shared LLC and a
shared off-chip channel.  The cores are interleaved in time order — at
every step the core with the smallest local clock advances one L1 miss
and the hits up to its next miss, which orders the shared resources
exactly as advancing one access would (docs/MODEL.md §2) — so bandwidth
contention between demand misses, prefetches, and metadata traffic is
resolved in (approximate) global time order.

System performance follows the paper's metric: the ratio of application
instructions to total cycles across the chip.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..config import SystemConfig
from ..memory.cache import Cache
from ..memory.dram import BandwidthLedger
from ..prefetchers.registry import make_prefetcher
from .timing import TimingResult, TimingSimulator
from .trace import MemoryTrace


@dataclass
class MulticoreResult:
    """Aggregate measurements of one quad-core run."""

    workload: str
    prefetcher: str
    per_core: list[TimingResult] = field(default_factory=list)
    bandwidth_utilization: float = 0.0

    @property
    def cycles(self) -> float:
        """Chip run time: the slowest core's clock."""
        return max((r.cycles for r in self.per_core), default=0.0)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.per_core)

    @property
    def ipc(self) -> float:
        """System throughput: total instructions over chip cycles."""
        cycles = self.cycles
        return self.instructions / cycles if cycles else 0.0

    @property
    def coverage(self) -> float:
        hits = sum(r.prefetch_hits for r in self.per_core)
        events = hits + sum(r.misses for r in self.per_core)
        return hits / events if events else 0.0


def simulate_multicore(traces: list[MemoryTrace], config: SystemConfig,
                       prefetcher_name: str = "baseline",
                       warmup_frac: float = 0.5,
                       **prefetcher_kwargs) -> MulticoreResult:
    """Run a workload across ``config.n_cores`` cores.

    ``traces`` holds one trace per core: every core runs the full server
    application over its own requests (same document library, different
    generation seeds; see
    :meth:`repro.workloads.suite.WorkloadSuite.core_traces`).

    Each core gets its own prefetcher instance (the paper's metadata
    tables are per core), built from the registry by name with
    ``prefetcher_kwargs``.  The leading ``warmup_frac`` of each
    core's trace warms caches and metadata tables and is excluded from
    the measurements (the SimFlex checkpoint-warming analogue).
    """
    if len(traces) != config.n_cores:
        raise ValueError(f"need {config.n_cores} per-core traces, "
                         f"got {len(traces)}")
    shared_llc = Cache(config.llc)
    shared_ledger = BandwidthLedger(config.cycles_per_block_transfer)

    cores: list[TimingSimulator] = []
    for core_trace in traces:
        prefetcher = make_prefetcher(prefetcher_name, config, **prefetcher_kwargs)
        sim = TimingSimulator(config, prefetcher, shared_llc=shared_llc,
                              shared_ledger=shared_ledger)
        sim.load(core_trace, warmup=int(len(core_trace) * warmup_frac))
        cores.append(sim)

    # Advance the core with the smallest local clock each step so shared
    # resources see requests in (approximately) global time order.  A
    # core with nothing to replay (an empty per-core trace) never
    # enters the heap.  The stepped core is the heap's top; its new
    # clock replaces it there in one sift, and (clock, index) keys are
    # unique, so the order equals a pop followed by a push.
    heap = [(sim.now, idx) for idx, sim in enumerate(cores) if not sim.done()]
    heapq.heapify(heap)
    while heap:
        idx = heap[0][1]
        sim = cores[idx]
        sim.step()
        if sim.done():
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (sim.now, idx))

    result = MulticoreResult(workload=traces[0].name,
                             prefetcher=cores[0].prefetcher.name)
    for sim in cores:
        result.per_core.append(sim.finalise())
    # Utilisation is reported over the whole run (warm-up included);
    # the shared ledger cannot attribute busy cycles to one window.
    result.bandwidth_utilization = shared_ledger.utilization(
        max(sim.now for sim in cores))
    return result

