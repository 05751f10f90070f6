"""Trace-driven prefetcher evaluation engine.

Implements the paper's trace-based methodology (Section IV-C/D): all
prefetchers are trained on the L1-D miss sequence and prefetch into a
32-block buffer near the L1-D.  Prefetches never fill the L1, so its
hit/miss split is prefetcher-independent, and the engine is one event
loop over the L1 misses of an :class:`~repro.sim.fastpath.L1Filter`:
:meth:`TraceSimulator.run` builds the trace's filter and replays it,
:meth:`TraceSimulator.run_filtered` replays a filter built (or loaded)
once and shared across runs.  For each miss the engine:

1. consults the prefetch buffer — a hit there is a *covered* miss and
   a triggering event of kind "prefetch hit", a miss is an uncovered
   miss and a triggering event of kind "miss";
2. forwards the triggering event to the prefetcher and inserts the
   returned candidates into the buffer (skipping blocks already
   resident in L1 or buffer);
3. routes buffer evictions and stream discards back to the prefetcher
   (stream-end detection / replacement semantics).

Outputs are :class:`SimulationResult` objects carrying the coverage
metrics, the metadata traffic and per-stream useful-run lengths.  The
baseline miss sequence (Sequitur's input) needs no engine run: with no
prefetcher every L1 miss is uncovered, so it is the filter's
``(pcs, blocks)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cancel import NEVER, current_token
from ..config import SystemConfig
from ..memory.metadata import MetadataTraffic
from ..memory.prefetch_buffer import PrefetchBuffer
from ..obs import DEBUG
from ..obs import names as obs_names
from ..obs import scope as obs_scope
from ..obs import timed
from ..obs.trace import span as trace_span
from ..prefetchers.base import NullPrefetcher, Prefetcher
from ..stats.metrics import CoverageMetrics
from ..stats.streamstats import StreamLengthStats
from .fastpath import L1Filter, build_l1_filter
from .trace import MemoryTrace, validate_warmup

if TYPE_CHECKING:
    from ..obs.runtime import Scope

#: Engine telemetry scope.  Disabled (one global read per guard) until
#: :func:`repro.obs.configure` turns the process's telemetry on; events
#: and counters only ever observe, so instrumented results are
#: bit-identical to uninstrumented ones.
_OBS = obs_scope("sim.engine")


@dataclass
class SimulationResult:
    """Everything measured by one trace-driven run."""

    workload: str
    prefetcher: str
    degree: int
    metrics: CoverageMetrics
    metadata: MetadataTraffic
    stream_lengths: StreamLengthStats = field(default_factory=StreamLengthStats)
    #: Free-form per-prefetcher extras (e.g. spatio-temporal split).
    extras: dict = field(default_factory=dict)

    # Convenience passthroughs used all over the experiments.
    @property
    def coverage(self) -> float:
        return self.metrics.coverage

    @property
    def overprediction_ratio(self) -> float:
        return self.metrics.overprediction_ratio

    @property
    def accuracy(self) -> float:
        return self.metrics.accuracy

    def summary(self) -> str:
        return (f"{self.workload}/{self.prefetcher} degree={self.degree}: "
                f"coverage={self.coverage:.1%} "
                f"overpred={self.overprediction_ratio:.1%} "
                f"accuracy={self.accuracy:.1%}")


class TraceSimulator:
    """Drives one prefetcher over one trace."""

    def __init__(self, config: SystemConfig,
                 prefetcher: Prefetcher | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)
        self.metrics = CoverageMetrics()
        self._stream_useful: defaultdict[int, int] = defaultdict(int)
        self._streams_seen: set[int] = set()

    def run(self, trace: MemoryTrace, warmup: int = 0) -> SimulationResult:
        """Simulate the whole trace; ``warmup`` leading accesses train
        state but are excluded from the reported counters.

        Builds the trace's L1 filter
        (:func:`~repro.sim.fastpath.build_l1_filter`) and replays it with
        :meth:`run_filtered` — the engine has no other L1-miss feed.
        """
        return self.run_filtered(build_l1_filter(trace, self.config), warmup)

    def run_filtered(self, filt: L1Filter, warmup: int = 0) -> SimulationResult:
        """Replay the L1 misses recorded in ``filt``.

        Bit-identical to a per-access loop over the originating trace
        (pinned against the reference simulator in ``tests/sim/``):
        prefetches never fill the L1, so its hit/miss split and eviction
        sequence are prefetcher-independent, and every L1 fact comes
        from the filter.
        """
        validate_warmup(warmup, filt.n_accesses)
        if _OBS.enabled:
            _OBS.counter(obs_names.MET_FASTPATH_REPLAYS).inc()
        return self._replay(filt, warmup)

    def _replay(self, filt: L1Filter, warmup: int) -> SimulationResult:
        """The engine's one event loop, over the ``(index, pc, block,
        evicted)`` rows of ``filt`` in access order.

        The rows are converted slice by slice as the loop consumes them
        (:meth:`~repro.sim.fastpath.L1Filter.replay_rows`).  The loop
        walks the ~miss-rate fraction of accesses, maintains an exact L1
        residency set from the recorded evictions (all the candidate
        filter needs), and reconstructs the hit counters analytically.
        Hits only ever incremented ``accesses`` and ``l1_hits``, and the
        warm-up reset fires before the first miss at or past ``warmup``
        — exactly where a per-access loop resets.
        """
        n_accesses = filt.n_accesses
        name = filt.trace_name
        prefetcher = self.prefetcher
        buffer = self.buffer
        metrics = self.metrics
        stream_useful = self._stream_useful
        streams_seen = self._streams_seen
        tel = _OBS
        tracing = tel.enabled
        # Hoisted out of the hot loop: per-event debug events are the
        # single most expensive emit path, and at info level and above
        # every one of them would be filtered out after the call anyway.
        emit_debug = tracing and tel.enabled_for(DEBUG)
        # Trigger/prefetch tallies accumulate in locals and flush to the
        # registry once per run: one integer add per event instead of a
        # Counter.inc() call, which is what keeps spans-on overhead
        # inside the bench_obs.py budget.
        n_miss = n_phit = n_issued = n_evict = n_over = 0
        # Cooperative cancellation: bounded-staleness checkpoints keyed
        # to the *original* access index, so progress is metered in
        # simulated accesses even though the loop only visits misses.
        # Without a token the NEVER sentinel makes the in-loop test a
        # single always-false integer compare, and checkpoints only
        # observe, so results are bit-identical either way (pinned by
        # tests/sim/test_cancel.py).
        cancel = current_token()
        published = 0
        if cancel is not None:
            cancel.raise_if_cancelled()
            check_every = cancel.check_every
            next_check = check_every
        else:
            next_check = NEVER

        resident: set[int] = set()
        # Access index of the warm-up reset; NEVER once it has fired.
        reset_at = warmup if warmup else NEVER

        with trace_span(obs_names.SPAN_SIMULATE, trace=name,
                        accesses=n_accesses), \
                timed("simulate", emit=False):
            for i, pc, block, victim_block in filt.replay_rows():
                if i >= next_check:
                    cancel.checkpoint(i - published)
                    published = i
                    next_check = i + check_every
                if i >= reset_at:
                    self._reset_counters()
                    metrics = self.metrics
                    reset_at = NEVER
                if victim_block >= 0:
                    resident.discard(victim_block)
                resident.add(block)
                entry = buffer.lookup(block)
                if entry is not None:
                    metrics.prefetch_hits += 1
                    stream_useful[entry.stream_id] += 1
                    if tracing:
                        n_phit += 1
                        if emit_debug:
                            tel.debug(obs_names.EVT_TRIGGER, kind="prefetch_hit", i=i,
                                      pc=pc, block=block, stream=entry.stream_id)
                    candidates = prefetcher.on_prefetch_hit(pc, block, entry.stream_id)
                else:
                    metrics.misses += 1
                    if tracing:
                        n_miss += 1
                        if emit_debug:
                            tel.debug(obs_names.EVT_TRIGGER, kind="miss", i=i,
                                      pc=pc, block=block)
                    candidates = prefetcher.on_miss(pc, block)

                killed = prefetcher.take_killed_streams()
                for sid in killed:
                    buffer.invalidate_stream(sid)

                for cand_block, sid in candidates:
                    if buffer.probe(cand_block) or cand_block in resident:
                        continue
                    metrics.prefetches_issued += 1
                    streams_seen.add(sid)
                    if tracing:
                        n_issued += 1
                        if emit_debug:
                            tel.debug(obs_names.EVT_PREFETCH, block=cand_block,
                                      stream=sid)
                    victim = buffer.insert(cand_block, sid)
                    if victim is not None:
                        if tracing:
                            if victim.used:
                                n_evict += 1
                                if emit_debug:
                                    tel.debug(obs_names.EVT_EVICTION,
                                              block=victim.block,
                                              stream=victim.stream_id)
                            else:
                                n_over += 1
                                if emit_debug:
                                    tel.debug(obs_names.EVT_OVERPREDICTION,
                                              block=victim.block,
                                              stream=victim.stream_id)
                        prefetcher.on_buffer_eviction(
                            victim.block, victim.stream_id, victim.used)

        if reset_at != NEVER:
            # Every miss fell inside the warm-up window; a per-access
            # loop would still have reset at i == warmup.
            self._reset_counters()
        metrics = self.metrics
        measured = n_accesses - warmup
        metrics.accesses = measured
        metrics.l1_hits = measured - (metrics.misses + metrics.prefetch_hits)
        if cancel is not None:
            cancel.advance(n_accesses - published)
        if tracing:
            self._flush_tallies(tel, n_miss, n_phit, n_issued, n_evict,
                                n_over)
        return self._emit_result(self._finalise(name))

    @staticmethod
    def _flush_tallies(tel: "Scope", n_miss: int, n_phit: int, n_issued: int,
                       n_evict: int, n_over: int) -> None:
        """Flush the hot loop's local trigger tallies to the registry."""
        if n_miss:
            tel.counter(obs_names.MET_TRIGGER_MISS).inc(n_miss)
        if n_phit:
            tel.counter(obs_names.MET_TRIGGER_PREFETCH_HIT).inc(n_phit)
        if n_issued:
            tel.counter(obs_names.MET_PREFETCH_ISSUED).inc(n_issued)
        if n_evict:
            tel.counter(obs_names.MET_EVICTION_USED).inc(n_evict)
        if n_over:
            tel.counter(obs_names.MET_OVERPREDICTION).inc(n_over)

    def _emit_result(self, result: SimulationResult) -> SimulationResult:
        tel = _OBS
        if tel.enabled:
            tel.info(obs_names.EVT_RUN_COMPLETE, workload=result.workload,
                     prefetcher=result.prefetcher, degree=result.degree,
                     accesses=result.metrics.accesses,
                     misses=result.metrics.misses,
                     prefetch_hits=result.metrics.prefetch_hits,
                     prefetches_issued=result.metrics.prefetches_issued,
                     overpredictions=result.metrics.overpredictions,
                     coverage=round(result.coverage, 6),
                     accuracy=round(result.accuracy, 6))
        return result

    def _reset_counters(self) -> None:
        """Forget warm-up measurements but keep all simulated state."""
        self.metrics = CoverageMetrics()
        self.buffer.reset_stats()
        self.prefetcher.reset_traffic()
        self._stream_useful.clear()
        self._streams_seen.clear()

    def _finalise(self, workload_name: str) -> SimulationResult:
        self.buffer.drain()
        self.metrics.overpredictions = self.buffer.stats.evicted_unused
        lengths = StreamLengthStats()
        # Sorted so per-stream accumulation order (and thus any
        # order-sensitive downstream rendering) is run-invariant.
        for sid in sorted(self._streams_seen):
            lengths.add(self._stream_useful.get(sid, 0))
        extras = {}
        component_hits = getattr(self.prefetcher, "component_hits", None)
        if component_hits is not None:
            extras["component_hits"] = dict(component_hits)
        return SimulationResult(
            workload=workload_name,
            prefetcher=self.prefetcher.name,
            degree=self.prefetcher.degree,
            metrics=self.metrics,
            metadata=self.prefetcher.metadata,
            stream_lengths=lengths,
            extras=extras,
        )


def simulate_trace(trace: MemoryTrace, config: SystemConfig,
                   prefetcher: Prefetcher | None = None,
                   warmup: int = 0) -> SimulationResult:
    """One-shot convenience wrapper around :class:`TraceSimulator`."""
    return TraceSimulator(config, prefetcher).run(trace, warmup=warmup)
