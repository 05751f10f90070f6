"""The per-access reference simulator: the oracle every bit-identity pin
of the trace engine compares against.

:class:`ReferenceSimulator` keeps the engine's original loop — one
iteration per trace access, with its own :class:`~repro.memory.cache.Cache`
deciding every hit and filtering every prefetch candidate, and its own
list of the uncovered misses.  The engine itself runs one event loop
over the rows of an L1 filter, which ``TraceSimulator.run`` builds from
the trace and ``TraceSimulator.run_filtered`` is handed; both must
return results equal to this loop's.  :func:`reference_filter_rows` is
the matching oracle for the filter build: a list-per-set LRU model that
shares no code with ``Cache``.
"""

from repro.config import CacheConfig, SystemConfig, small_test_config
from repro.memory.cache import Cache
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sim.engine import SimulationResult, TraceSimulator
from repro.sim.fastpath import L1Filter, build_l1_filter
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
        pcs, blocks, _, _ = trace.as_lists()
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
                    prefetcher.on_buffer_eviction(
                        victim.block, victim.stream_id, victim.used)
        return self._finalise(trace.name)


def reference_filter_rows(trace: MemoryTrace,
                          l1: CacheConfig) -> list[tuple[int, int, int, int]]:
    """``(index, pc, block, evicted)`` of every L1 miss of ``trace``.

    Each set is a plain list in recency order (least recent first), so
    a miss evicts ``lru[0]`` once the set holds ``ways`` blocks.
    """
    sets: list[list[int]] = [[] for _ in range(l1.n_sets)]
    rows = []
    pcs, blocks, _, _ = trace.as_lists()
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
