"""Cell executors: compute one cell's payload from first principles.

This module is imported inside worker processes, so everything here
must be importable without side effects and all inputs/outputs must be
picklable.  Payloads are plain JSON-serialisable dicts — exactly what
the artifact store persists — so a cache hit and a fresh execution are
indistinguishable to the caller.

Each worker process keeps its own :class:`WorkloadSuite` per seed so
that consecutive cells on the same workload reuse the generated trace
(the in-process analogue of what ``ExperimentContext`` did serially).
Trace generation is deterministic in (workload, length, seed), which is
what makes parallel and serial execution bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .. import obs
from ..config import SystemConfig
from ..errors import RunnerError, SimulationError
from ..obs import names as obs_names
from ..obs.trace import span
from ..prefetchers.registry import make_prefetcher
from ..sequitur.analysis import analyze_sequence
from ..sim import fastpath
from ..sim.engine import TraceSimulator
from ..sim.multicore import simulate_multicore
from ..sim.trace import MemoryTrace
from ..workloads.suite import WorkloadSuite
from .cells import Cell, cell_config, l1_filter_key
from .shm import attach_trace, trace_share_key

#: Per-process workload suites, keyed by generation seed.
_SUITES: dict[int, WorkloadSuite] = {}

#: Per-process L1 filter memo, keyed by :func:`l1_filter_key`.
_FILTERS: dict[str, fastpath.L1Filter] = {}

#: Artifact-store root the fastpath shares filters through (set per
#: work item by :func:`execute_timed`; ``None`` = in-process memo only).
_FASTPATH_ROOT: str | None = None

#: Shared-memory trace spec published by the scheduler (set per work
#: item by :func:`execute_timed`; ``None`` = regenerate from the seed).
_TRACE_SHARE: dict[str, dict[str, Any]] | None = None

#: Fastpath reuse telemetry (off until obs.configure()).
_OBS = obs.scope("runner.fastpath")


def _suite(seed: int) -> WorkloadSuite:
    if seed not in _SUITES:
        _SUITES[seed] = WorkloadSuite(seed=seed)
    return _SUITES[seed]


def set_fastpath_root(root: str | None) -> None:
    """Point the fastpath at an artifact store (or detach it)."""
    global _FASTPATH_ROOT
    _FASTPATH_ROOT = root


def set_trace_share(spec: dict[str, dict[str, Any]] | None) -> None:
    """Install (or clear) the scheduler's shared-memory trace spec."""
    global _TRACE_SHARE
    _TRACE_SHARE = spec


def _trace(workload: str, options: Any) -> MemoryTrace:
    """The workload trace for ``options``, zero-copy when shared.

    Preference order: an attached shared-memory segment published by
    the scheduler (no per-worker generation, no private pages), then
    the per-process suite memo (deterministic regeneration from the
    seed).  Both return the same values, so the share is purely an
    optimisation channel.
    """
    spec = _TRACE_SHARE
    if spec is not None:
        entry = spec.get(
            trace_share_key(workload, options.n_accesses, options.seed))
        if entry is not None:
            trace = attach_trace(entry)
            if trace is not None:
                return trace
    return _suite(options.seed).trace(workload, options.n_accesses)


def _l1_filter(workload: str, options: Any, config: SystemConfig,
               window: tuple[int, int] | None = None) -> fastpath.L1Filter:
    """The L1 filter for one ``(workload, options, l1 config[, window])``.

    Resolution order: per-process memo, then the shared artifact store
    (``kind="l1_filter"``), then a fresh build from the generated trace
    (persisted back to the store for every other cell, worker, and
    ``--resume`` of the same grid).  A store hit skips trace generation
    entirely — the key is computable without the trace.
    """
    from .store import ResultStore

    key = l1_filter_key(workload, options, config, window=window)
    filt = _FILTERS.get(key)
    if filt is not None:
        if _OBS.enabled:
            _OBS.counter(obs_names.MET_FASTPATH_MEMO_HITS).inc()
        return filt
    store = ResultStore(_FASTPATH_ROOT) if _FASTPATH_ROOT is not None else None
    if store is not None:
        payload = store.get(key, kind="l1_filter")
        if payload is not None:
            try:
                filt = fastpath.filter_from_payload(payload)
            except SimulationError as exc:
                # The envelope parsed but the payload is unusable
                # (stale codec, corrupt arrays, mismatched sidecar).
                # Quarantine it like any other bad artifact — leaving
                # it in place would re-trip every future reader and
                # hide the evidence behind the rebuild's overwrite.
                filt = None
                store.quarantine_key(key, reason=str(exc))
                _OBS.warning(obs_names.EVT_FASTPATH_FILTER_REJECTED,
                             workload=workload, key=key[:12],
                             reason=str(exc))
            if filt is not None:
                _FILTERS[key] = filt
                if _OBS.enabled:
                    _OBS.counter(obs_names.MET_FASTPATH_STORE_HITS).inc()
                    _OBS.info(obs_names.EVT_FASTPATH_FILTER_HIT, source="store",
                              workload=workload, misses=filt.n_misses)
                return filt
    trace = _trace(workload, options)
    if window is not None:
        trace = trace.slice(*window)
    filt = fastpath.build_l1_filter(trace, config)
    _FILTERS[key] = filt
    if store is not None:
        payload, sidecar = fastpath.filter_to_binary(filt)
        store.put(key, payload, kind="l1_filter", sidecar=sidecar)
    return filt


def _warmup(options: Any) -> int:
    return int(options.n_accesses * options.warmup_frac)


def _execute_trace(cell: Cell, options: Any) -> dict[str, Any]:
    config = cell_config(cell)
    degree = cell.degree if cell.degree is not None else options.degree
    prefetcher = make_prefetcher(cell.prefetcher, config, degree=degree,
                                 **dict(cell.params))
    filt = _l1_filter(cell.workload, options, config)
    result = TraceSimulator(config, prefetcher).run_filtered(
        filt, warmup=_warmup(options))
    return {
        "coverage": result.coverage,
        "overprediction_ratio": result.overprediction_ratio,
        "accuracy": result.accuracy,
        "misses": result.metrics.misses,
        "prefetch_hits": result.metrics.prefetch_hits,
        "prefetches_issued": result.metrics.prefetches_issued,
        "accesses": result.metrics.accesses,
    }


def _execute_opportunity(cell: Cell, options: Any) -> dict[str, Any]:
    config = cell_config(cell)
    # With a NullPrefetcher the buffer never fills, so the baseline miss
    # stream over the measured window *is* the window's L1 filter — no
    # engine run needed.
    bounds = (_warmup(options), options.n_accesses)
    filt = _l1_filter(cell.workload, options, config, window=bounds)
    blocks = filt.blocks.tolist()
    analysis = analyze_sequence(blocks)
    return {
        "opportunity": analysis.opportunity,
        "n_misses": len(blocks),
    }


def _execute_multicore(cell: Cell, options: Any) -> dict[str, Any]:
    config = cell_config(cell)
    traces = _suite(options.seed).core_traces(cell.workload,
                                              options.per_core_accesses,
                                              n_cores=config.n_cores)
    result = simulate_multicore(traces, config, cell.prefetcher,
                                warmup_frac=options.warmup_frac,
                                **dict(cell.params))
    return {
        "ipc": result.ipc,
        "coverage": result.coverage,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "bandwidth_utilization": result.bandwidth_utilization,
    }


def _execute_table1(cell: Cell, options: Any) -> dict[str, Any]:
    config = cell_config(cell)
    rows = [
        ["Chip", f"{config.n_cores} cores, {config.clock_ghz:g} GHz"],
        ["Core", f"OoO, {config.issue_width}-wide, {config.rob_entries}-entry "
                 f"ROB, {config.lsq_entries}-entry LSQ"],
        ["L1-D", f"{config.l1d.size_bytes // 1024} KB, {config.l1d.ways}-way, "
                 f"{config.l1d.hit_latency}-cycle, {config.l1_mshrs} MSHRs"],
        ["LLC", f"{config.llc.size_bytes // (1024 * 1024)} MB, "
                f"{config.llc.ways}-way, {config.llc.hit_latency}-cycle, "
                f"{config.llc_mshrs} MSHRs"],
        ["Memory", f"{config.memory_latency_ns:g} ns "
                   f"({config.memory_latency_cycles} cycles), "
                   f"{config.peak_bandwidth_gbps:g} GB/s peak"],
        ["Prefetch buffer", f"{config.prefetch_buffer_blocks} blocks"],
        ["Prefetch degree", str(config.prefetch_degree)],
        ["Active streams", str(config.active_streams)],
        ["Metadata sampling", f"{config.sampling_probability:.1%}"],
        ["HT", f"{config.ht_entries} entries, {config.ht_row_entries}/row"],
        ["EIT", f"{config.eit_rows} rows x {config.eit_assoc} super-entries "
                f"x {config.eit_entries_per_super} entries"],
    ]
    return {"rows": rows}


_EXECUTORS = {
    "trace": _execute_trace,
    "opportunity": _execute_opportunity,
    "multicore": _execute_multicore,
    "table1": _execute_table1,
}


def execute_cell(cell: Cell, options: Any) -> dict[str, Any]:
    """Run one cell and return its JSON-serialisable payload."""
    try:
        executor = _EXECUTORS[cell.kind]
    except KeyError:
        raise RunnerError(f"no executor for cell kind {cell.kind!r}") from None
    return executor(cell, options)


@dataclass
class CellTelemetry:
    """What one cell execution cost and what it observed.

    Picklable side channel next to the payload: the payload stays
    byte-identical with telemetry on or off (it is what gets cached),
    while this rides back to the scheduler for manifests and traces.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Structured events captured inside the (worker) process.
    events: list[dict[str, Any]] = field(default_factory=list)
    #: Registry snapshot captured inside the (worker) process.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Ring-buffer evictions during capture (0 = full-fidelity trace).
    dropped: int = 0
    #: Top cProfile rows, when per-cell profiling was requested.
    profile: list[dict[str, Any]] = field(default_factory=list)
    #: Finished span records captured inside the (worker) process; the
    #: scheduler grafts them under its own span tree on absorption.
    spans: list[dict[str, Any]] = field(default_factory=list)


def execute_timed(
    item: tuple[int, str, Cell, Any] | tuple[int, str, Cell, Any, "obs.ObsConfig | None"] | tuple[Any, ...],
) -> tuple[int, str, dict[str, Any], CellTelemetry]:
    """Pool entry point:
    ``(index, key, cell, options[, obs_config[, faults, attempt[,
    fastpath_root[, trace_share]]]])`` in,
    ``(index, key, payload, telemetry)`` out.

    When an :class:`repro.obs.ObsConfig` rides along, the cell runs
    under a fresh captured telemetry state (shielding whatever the
    worker inherited via fork) and its events/metrics/profile come back
    in the :class:`CellTelemetry`.  Without one, the only cost over the
    bare call is two clock reads.

    When a :class:`repro.faults.FaultPlan` rides along (chaos testing),
    it is applied *before* the cell computes: the injected crash, hang,
    or worker death for ``(key, attempt)`` is deterministic, so serial
    and pool execution fail — and therefore retry — identically.
    """
    index, key, cell, options = item[:4]
    obs_config = item[4] if len(item) > 4 else None
    faults = item[5] if len(item) > 5 else None
    attempt = item[6] if len(item) > 6 else 0
    set_fastpath_root(item[7] if len(item) > 7 else None)
    set_trace_share(item[8] if len(item) > 8 else None)
    if faults is not None:
        faults.apply(key, attempt)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with obs.capture(obs_config) as cap:
        with span(obs_names.SPAN_CELL, cell=cell.label, attempt=attempt):
            if obs_config is not None and obs_config.profile:
                payload, profile_rows = obs.profile_call(
                    execute_cell, cell, options, top=obs_config.profile_top)
            else:
                payload = execute_cell(cell, options)
                profile_rows = []
    telemetry = CellTelemetry(wall_s=time.perf_counter() - wall0,
                              cpu_s=time.process_time() - cpu0,
                              events=cap.events, metrics=cap.metrics,
                              dropped=cap.dropped, profile=profile_rows,
                              spans=cap.spans)
    return index, key, payload, telemetry
