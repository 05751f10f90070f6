"""Trace-driven prefetcher evaluation engine and the one per-miss event path.

Implements the paper's trace-based methodology (Section IV-C/D): all
prefetchers are trained on the L1-D miss sequence and prefetch into a
32-block buffer near the L1-D.  Prefetches never fill the L1, so its
hit/miss split is prefetcher-independent, and every simulation replays
the L1 misses of an :class:`~repro.sim.fastpath.L1Filter` through
:class:`EventPath`.  For each miss the path:

1. consults the prefetch buffer — a hit there is a *covered* miss and
   a triggering event of kind "prefetch hit", a miss is an uncovered
   miss and a triggering event of kind "miss";
2. forwards the triggering event to the prefetcher and inserts the
   returned candidates into the buffer (skipping blocks already
   resident in L1 or buffer);
3. routes buffer evictions and stream discards back to the prefetcher
   (stream-end detection / replacement semantics).

:class:`TraceSimulator` counts coverage on that path —
:meth:`TraceSimulator.run` builds the trace's filter and replays it,
:meth:`TraceSimulator.run_filtered` replays a filter built (or loaded)
once and shared across runs — and the cycle model
(:class:`~repro.sim.timing.TimingSimulator`) adds time on top of it.
Outputs are :class:`SimulationResult` objects carrying the coverage
metrics, the metadata traffic and per-stream useful-run lengths.  The
baseline miss sequence (Sequitur's input) needs no engine run: with no
prefetcher every L1 miss is uncovered, so it is the filter's
``(pcs, blocks)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..cancel import NEVER, current_checks
from ..config import SystemConfig
from ..memory.metadata import MetadataTraffic
from ..memory.prefetch_buffer import BufferEntry, PrefetchBuffer
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


class EventPath:
    """The one per-miss event path of both engines.

    Each engine feeds the ``(index, pc, block, evicted)`` rows of an
    :class:`~repro.sim.fastpath.L1Filter` to :meth:`_on_l1_miss` in
    access order and measures through the hooks :meth:`_account_demand`
    and :meth:`_issue`; the entry points live in the subclasses.
    """

    def __init__(self, config: SystemConfig,
                 prefetcher: Prefetcher | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)

    def _open_events(self) -> None:
        """Start a replay of a filter built from a cold L1."""
        self._resident: set[int] = set()
        # Cooperative cancellation: bounded-staleness checkpoints keyed
        # to the *original* access index, so progress is metered in
        # simulated accesses even though the path only visits misses.
        # Without a token the NEVER sentinel makes the per-miss test a
        # single always-false integer compare, and checkpoints only
        # observe, so results are bit-identical either way (pinned by
        # tests/sim/test_cancel.py).
        self._cancel, self._next_check = current_checks()
        self._published = 0
        # Trigger/prefetch tallies (miss, prefetch hit, issued,
        # overprediction) accumulate per run and flush to the registry
        # once: one add per event instead of a Counter.inc() call, which
        # is what keeps spans-on overhead inside the bench_obs.py
        # budget.  ``None`` while telemetry is off.  The debug level
        # test is hoisted too: per-event debug events are the single
        # most expensive emit path.
        self._tally: list[int] | None = [0] * 4 if _OBS.enabled else None
        self._emit_debug = _OBS.enabled_for(DEBUG)

    def _close_events(self, n_accesses: int) -> None:
        """Meter the rest of the accesses and flush the tallies; a second
        call adds nothing."""
        if self._cancel is not None:
            self._cancel.advance(n_accesses - self._published)
            self._published = n_accesses
        if self._tally is not None:
            n_miss, n_phit, n_issued, n_over = self._tally
            if n_miss:
                _OBS.counter(obs_names.MET_TRIGGER_MISS).inc(n_miss)
            if n_phit:
                _OBS.counter(obs_names.MET_TRIGGER_PREFETCH_HIT).inc(n_phit)
            if n_issued:
                _OBS.counter(obs_names.MET_PREFETCH_ISSUED).inc(n_issued)
            if n_over:
                _OBS.counter(obs_names.MET_OVERPREDICTION).inc(n_over)
            self._tally = [0] * 4

    def _on_l1_miss(self, i: int, pc: int, block: int, victim_block: int) -> None:
        """One L1 miss at access index ``i``, start to finish."""
        if i >= self._next_check:
            self._cancel.checkpoint(i - self._published)
            self._published = i
            self._next_check = i + self._cancel.check_every
        resident = self._resident
        if victim_block >= 0:
            resident.discard(victim_block)
        resident.add(block)
        buffer = self.buffer
        prefetcher = self.prefetcher
        tally = self._tally
        entry = buffer.lookup(block)
        if tally is not None:
            self._tally_trigger(tally, i, pc, block, entry)
        if entry is not None:
            candidates = prefetcher.on_prefetch_hit(pc, block, entry.stream_id)
        else:
            candidates = prefetcher.on_miss(pc, block)
        self._account_demand(i, block, entry)

        # Most events kill no stream and issue nothing: skip the drain
        # call and the candidate loop then.
        if prefetcher._killed_streams:
            for sid in prefetcher.take_killed_streams():
                buffer.invalidate_stream(sid)
        if not candidates:
            return

        for cand_block, sid in candidates:
            if buffer.probe(cand_block) or cand_block in resident:
                continue
            ready = self._issue(cand_block, sid)
            if ready is None:
                continue
            victim = buffer.insert(cand_block, sid, ready)
            if tally is not None:
                self._tally_issue(tally, cand_block, sid, victim)
            if victim is not None:
                prefetcher.on_buffer_eviction(victim.block, victim.stream_id)

    def _tally_trigger(self, tally: list[int], i: int, pc: int, block: int,
                       entry: BufferEntry | None) -> None:
        if entry is None:
            tally[0] += 1
            if self._emit_debug:
                _OBS.debug(obs_names.EVT_TRIGGER, kind="miss", i=i, pc=pc,
                           block=block)
        else:
            tally[1] += 1
            if self._emit_debug:
                _OBS.debug(obs_names.EVT_TRIGGER, kind="prefetch_hit", i=i,
                           pc=pc, block=block, stream=entry.stream_id)

    def _tally_issue(self, tally: list[int], block: int, stream_id: int,
                     victim: BufferEntry | None) -> None:
        tally[2] += 1
        emit_debug = self._emit_debug
        if emit_debug:
            _OBS.debug(obs_names.EVT_PREFETCH, block=block, stream=stream_id)
        if victim is None:
            return
        tally[3] += 1
        if emit_debug:
            _OBS.debug(obs_names.EVT_OVERPREDICTION, block=victim.block,
                       stream=victim.stream_id)

    def _account_demand(self, i: int, block: int,
                        entry: BufferEntry | None) -> None:
        """Measure the demand at access ``i``: a prefetch hit on
        ``entry``, or an uncovered miss when it is ``None``."""
        raise NotImplementedError

    def _issue(self, block: int, stream_id: int) -> float | None:
        """A candidate's buffer ready time, or ``None`` to shed it."""
        raise NotImplementedError


class TraceSimulator(EventPath):
    """Drives one prefetcher over one trace."""

    def __init__(self, config: SystemConfig,
                 prefetcher: Prefetcher | None = None) -> None:
        super().__init__(config, prefetcher)
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
        from the filter.  The rows are converted slice by slice as the
        loop consumes them (:meth:`~repro.sim.fastpath.L1Filter.replay_rows`),
        and the hit counters are reconstructed analytically: hits only
        ever incremented ``accesses`` and ``l1_hits``, and the warm-up
        reset fires before the first miss at or past ``warmup`` —
        exactly where a per-access loop resets.
        """
        validate_warmup(warmup, filt.n_accesses)
        if _OBS.enabled:
            _OBS.counter(obs_names.MET_FASTPATH_REPLAYS).inc()
        n_accesses = filt.n_accesses
        name = filt.trace_name
        self._open_events()
        on_l1_miss = self._on_l1_miss
        # Access index of the warm-up reset; NEVER once it has fired.
        reset_at = warmup if warmup else NEVER

        with trace_span(obs_names.SPAN_SIMULATE, trace=name,
                        accesses=n_accesses), \
                timed("simulate"):
            for i, pc, block, victim_block in filt.replay_rows():
                if i >= reset_at:
                    self._reset_counters()
                    reset_at = NEVER
                on_l1_miss(i, pc, block, victim_block)

        if reset_at != NEVER:
            # Every miss fell inside the warm-up window; a per-access
            # loop would still have reset at i == warmup.
            self._reset_counters()
        metrics = self.metrics
        measured = n_accesses - warmup
        metrics.accesses = measured
        metrics.l1_hits = measured - (metrics.misses + metrics.prefetch_hits)
        self._close_events(n_accesses)
        result = self._finalise(name)
        if _OBS.enabled:
            _OBS.info(obs_names.EVT_RUN_COMPLETE, workload=result.workload,
                      prefetcher=result.prefetcher, degree=result.degree,
                      accesses=metrics.accesses, misses=metrics.misses,
                      prefetch_hits=metrics.prefetch_hits,
                      prefetches_issued=metrics.prefetches_issued,
                      overpredictions=metrics.overpredictions,
                      coverage=round(result.coverage, 6),
                      accuracy=round(result.accuracy, 6))
        return result

    def _account_demand(self, i: int, block: int,
                        entry: BufferEntry | None) -> None:
        if entry is not None:
            self.metrics.prefetch_hits += 1
            self._stream_useful[entry.stream_id] += 1
        else:
            self.metrics.misses += 1

    def _issue(self, block: int, stream_id: int) -> float:
        self.metrics.prefetches_issued += 1
        self._streams_seen.add(stream_id)
        return 0.0

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
