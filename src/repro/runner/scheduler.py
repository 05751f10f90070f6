"""Cell scheduler: cache probe, fault-tolerant fan-out, ordered collection.

``run_cells`` is the single entry point.  For every cell it first
probes the artifact store; only misses are executed, either in-process
(``jobs == 1`` or pool unavailable) or across a ``multiprocessing``
pool.  Results always come back in input order regardless of worker
completion order, so experiments can zip cells to payloads positionally
and parallel output is bit-identical to serial output.

Failure isolation (see docs/ROBUSTNESS.md): a worker exception, a
worker death, or a per-cell timeout marks *that cell* failed instead of
aborting the run.  Each cell gets ``policy.retries`` retries with
exponential backoff and deterministic jitter; cells that exhaust the
budget are recorded in the manifest with status ``failed`` or
``timeout`` and — under ``keep_going`` — leave a ``None`` payload so
the run still emits partial results.  The pool loop collects results
asynchronously (``apply_async`` + polling) so a hung cell can never
block the run forever: when a cell blows its wall-clock deadline the
pool is torn down with ``terminate()``, innocent in-flight cells are
resubmitted without penalty, and the hung cell is retried or failed.

Resume is a re-run: every payload is persisted to the store the moment
its cell completes, so a killed sweep run again on the same cache
serves the finished cells as hits and executes only the rest.

The execution policy (worker count, cache on/off, retries, timeout,
fault plan) is a process-wide setting written by the CLI before
experiments run; library callers can pass an explicit policy instead.
Policy knobs never enter cache keys — see :mod:`repro.runner.cells`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from .. import obs
from ..backoff import backoff_delay
from ..cancel import CancelToken, cancel_scope
from ..obs import names as obs_names
from ..obs.trace import current_span, span
from ..errors import CellFailedError, JobCancelled, RunnerTimeoutError
from ..faults import FaultPlan, corrupt_artifact
from ..workloads.suite import WorkloadSuite
from . import shm
from .cells import Cell, cell_key
from .execute import CellTelemetry, execute_timed, reads_trace
from .manifest import RunManifest
from .store import ResultStore

#: Scheduler telemetry scope (off until obs.configure()).
_OBS = obs.scope("runner.scheduler")

#: Grace added to pool deadlines for worker pickup latency: a task is
#: submitted only when a worker slot is free, but the worker still has
#: to unpickle it before the cell's clock really starts.
_DISPATCH_GRACE_S = 0.25

#: Pool poll interval while waiting for results (seconds).
_POLL_S = 0.01

#: Retry spacing: attempt ``n`` waits ``RETRY_BACKOFF_S * 2**n``, capped
#: at ``RETRY_BACKOFF_MAX_S``, scaled by a deterministic jitter in
#: ``[0.5, 1.5)`` (:func:`repro.backoff.backoff_delay`).
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_MAX_S = 2.0


@dataclass(frozen=True)
class ExecutionPolicy:
    """How cells run: parallelism, caching, and fault tolerance.
    Never affects results.

    ``use_cache`` defaults to ``False`` so plain library calls
    (``run_experiment`` from tests or notebooks) never write to the
    working directory as a side effect; the CLI opts in explicitly
    (``domino-repro run`` caches unless ``--no-cache`` is given).

    Fault-tolerance knobs (all default to the strict, legacy-compatible
    behaviour):

    ``retries``
        Retry budget per cell; each retry waits the deterministic
        backoff of :data:`RETRY_BACKOFF_S` / :data:`RETRY_BACKOFF_MAX_S`
        before re-running.
    ``timeout_s``
        Per-cell wall-clock budget.  In pool mode a watchdog terminates
        the pool and retries the cell; in serial mode the overrun is
        detected after the fact and the result discarded, so both modes
        record the same ``timeout`` status.
    ``keep_going``
        When True, cells that exhaust retries yield ``None`` payloads
        and the run completes (graceful degradation); when False the
        first exhausted cell raises :class:`CellFailedError`.
    ``faults``
        Deterministic fault-injection plan (chaos testing); see
        :mod:`repro.faults`.
    """

    jobs: int = 1
    use_cache: bool = False
    cache_dir: str | Path | None = None
    retries: int = 0
    timeout_s: float | None = None
    keep_going: bool = False
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")


_POLICY = ExecutionPolicy()


def set_policy(policy: ExecutionPolicy | None = None, **overrides: Any) -> ExecutionPolicy:
    """Install the process-wide execution policy (CLI entry point)."""
    global _POLICY
    base = policy if policy is not None else ExecutionPolicy()
    _POLICY = replace(base, **overrides) if overrides else base
    return _POLICY


def get_policy() -> ExecutionPolicy:
    return _POLICY


# ---------------------------------------------------------------------------
# outcomes and shared attempt bookkeeping


@dataclass
class _Outcome:
    """Terminal result of one cell: a payload or an exhausted failure."""

    index: int
    key: str
    label: str
    status: str                       # ok | retried | failed | timeout
    attempts: int
    payload: dict[str, Any] | None = None
    telemetry: CellTelemetry | None = None
    error: str = ""


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _backoff_delay(key: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter in [0.5x, 1.5x)."""
    return backoff_delay(key, attempt, base_s=RETRY_BACKOFF_S,
                         max_s=RETRY_BACKOFF_MAX_S)


def _attempt_failed(exc: BaseException, key: str, label: str, attempt: int,
                    policy: ExecutionPolicy) -> tuple[str, float]:
    """Classify one failed attempt: ``("retry", delay)`` or a terminal
    ``("failed" | "timeout", 0.0)``.  Emits the matching trace event."""
    timed_out = isinstance(exc, RunnerTimeoutError)
    if timed_out:
        _OBS.warning(obs_names.EVT_CELL_TIMEOUT, cell=label, attempt=attempt + 1,
                     timeout_s=policy.timeout_s)
    if attempt < policy.retries:
        delay = _backoff_delay(key, attempt)
        _OBS.warning(obs_names.EVT_CELL_RETRY, cell=label, attempt=attempt + 1,
                     delay_s=round(delay, 4), error=_describe(exc))
        return "retry", delay
    status = "timeout" if timed_out else "failed"
    _OBS.error(obs_names.EVT_CELL_FAILED, cell=label, status=status,
               attempts=attempt + 1, error=_describe(exc))
    return status, 0.0


def _exhausted(outcome: _Outcome, policy: ExecutionPolicy,
               cause: BaseException) -> _Outcome:
    """Final failure: raise under strict policy, else degrade."""
    if not policy.keep_going:
        raise CellFailedError(
            f"cell {outcome.label} {outcome.status} after "
            f"{outcome.attempts} attempt(s): {outcome.error}") from cause
    return outcome


def _finish(outcome: _Outcome, results: list[dict[str, Any] | None],
            manifest: RunManifest) -> None:
    """Fold one terminal cell outcome into the run, in input order.

    Successful payloads are persisted immediately by the caller (crash
    safety); this function owns the deterministic, input-ordered
    accounting: manifest rows, absorbed worker telemetry, and trace
    events — identical for serial and pool execution.
    """
    if outcome.payload is None:
        manifest.record_failed(outcome.key, outcome.label,
                               status=outcome.status,
                               attempts=outcome.attempts,
                               error=outcome.error)
        return
    results[outcome.index] = outcome.payload
    telemetry = outcome.telemetry or CellTelemetry()
    manifest.record_executed(outcome.key, outcome.label,
                             telemetry.wall_s, telemetry.cpu_s,
                             status=outcome.status,
                             attempts=outcome.attempts)
    if _OBS.enabled:
        # Worker spans graft under this context's open span (the
        # runner.run span), joining its trace id.
        obs.absorb(telemetry.events, telemetry.metrics,
                   tag={"cell": outcome.label},
                   spans=telemetry.spans, parent=current_span())
        _OBS.info(obs_names.EVT_CELL_EXECUTED, cell=outcome.label, key=outcome.key[:12],
                  status=outcome.status, attempts=outcome.attempts,
                  wall_s=round(telemetry.wall_s, 6),
                  cpu_s=round(telemetry.cpu_s, 6),
                  events=len(telemetry.events), dropped=telemetry.dropped)
        if telemetry.profile:
            _OBS.info(obs_names.EVT_CELL_PROFILE, cell=outcome.label,
                      rows=telemetry.profile)


def _persist(key: str, payload: dict[str, Any],
             store: ResultStore | None, policy: ExecutionPolicy) -> None:
    """Durably store a completed payload.

    Runs at completion time (not collection time) so a kill between two
    cells loses at most the in-flight work.  The ``corrupt`` fault mode
    clobbers the artifact *after* the put, modelling on-disk rot that
    the next run's quarantine path must absorb.
    """
    if store is None:
        return
    store.put(key, payload)
    if policy.faults is not None and policy.faults.should_corrupt(key):
        if corrupt_artifact(store.path_for(key)):
            _OBS.warning(obs_names.EVT_FAULT_CORRUPT_ARTIFACT, key=key[:12])


# ---------------------------------------------------------------------------
# serial execution


def _run_serial(pending: list[tuple[int, str, Cell]], options: Any,
                results: list[dict[str, Any] | None], store: ResultStore | None,
                manifest: RunManifest, policy: ExecutionPolicy,
                cancel: CancelToken | None = None) -> None:
    obs_config = obs.current_config()
    fastpath_root = str(store.base) if store is not None else None
    for index, key, cell in pending:
        attempt = 0
        while True:
            if cancel is not None:
                cancel.raise_if_cancelled()
            started = time.monotonic()
            try:
                # The scope makes the token visible to the engine's
                # checkpoint inside this thread's call stack.
                with cancel_scope(cancel):
                    _, _, payload, telemetry = execute_timed(
                        (index, key, cell, options, obs_config,
                         policy.faults, attempt, fastpath_root, None))
                elapsed = time.monotonic() - started
                if (policy.timeout_s is not None
                        and elapsed > policy.timeout_s):
                    raise RunnerTimeoutError(
                        f"cell {cell.label} took {elapsed:.3f}s "
                        f"(budget {policy.timeout_s:g}s)")
            except JobCancelled:
                # Cancellation is a run-level verdict, not a cell
                # failure: never retried, never degraded by keep_going.
                raise
            except Exception as exc:
                action, delay = _attempt_failed(exc, key, cell.label,
                                                attempt, policy)
                if action == "retry":
                    if cancel is None:
                        time.sleep(delay)
                    elif cancel.wait(delay):
                        cancel.raise_if_cancelled()
                    attempt += 1
                    continue
                outcome = _Outcome(index=index, key=key, label=cell.label,
                                   status=action, attempts=attempt + 1,
                                   error=_describe(exc))
                _finish(_exhausted(outcome, policy, exc), results, manifest)
                break
            status = "retried" if attempt else "ok"
            _persist(key, payload, store, policy)
            _finish(_Outcome(index=index, key=key, label=cell.label,
                             status=status, attempts=attempt + 1,
                             payload=payload, telemetry=telemetry),
                    results, manifest)
            break


# ---------------------------------------------------------------------------
# pool execution


@dataclass
class _InFlight:
    """One dispatched cell attempt awaiting its AsyncResult."""

    handle: Any
    key: str
    cell: Cell
    attempt: int
    deadline: float | None


@dataclass
class _Queued:
    """One cell attempt waiting for a worker slot (or its backoff)."""

    index: int
    key: str
    cell: Cell
    attempt: int = 0
    eligible_at: float = 0.0
    #: Preserves original submission order among equally eligible items.
    rank: int = field(default=0)


def _make_pool(processes: int) -> multiprocessing.pool.Pool | None:
    try:
        return multiprocessing.Pool(processes=processes)
    except (OSError, ValueError, ImportError):
        return None


def _trace_share_plan(pending: list[tuple[int, str, Cell]], options: Any,
                      store: ResultStore | None) -> dict[str, str]:
    """Spec key -> workload for traces some pool worker will read
    (:func:`~repro.runner.execute.reads_trace` decides per cell)."""
    return {shm.trace_share_key(cell.workload, options.n_accesses,
                                options.seed): cell.workload
            for _, _, cell in pending if reads_trace(cell, options, store)}


def _publish_trace_share(pending: list[tuple[int, str, Cell]], options: Any,
                         store: ResultStore | None) -> shm.TraceShare | None:
    """Generate needed traces once and export them to shared memory.

    Returns ``None`` whenever sharing is pointless or fails — workers
    then regenerate per process exactly as before, so this can only
    ever remove work, never change results.
    """
    shm.reap_stale_segments()
    try:
        plan = _trace_share_plan(pending, options, store)
        if not plan:
            return None
        # A local suite, not the executor memo: the parent should not
        # keep private copies of arrays whose lifetime the share owns.
        suite = WorkloadSuite(seed=options.seed)
        traces = {spec_key: suite.trace(workload, options.n_accesses)
                  for spec_key, workload in plan.items()}
    except Exception:
        # e.g. an unknown workload: let the per-cell isolation in the
        # workers report it with retries/keep_going semantics intact.
        return None
    return shm.publish_traces(traces)


def _run_pool(pending: list[tuple[int, str, Cell]], options: Any,
              results: list[dict[str, Any] | None], store: ResultStore | None,
              manifest: RunManifest, policy: ExecutionPolicy,
              cancel: CancelToken | None = None) -> bool:
    """Fan pending cells across a worker pool with async collection.

    Returns False if no pool could be created (caller falls back to
    serial execution).  On any error — including KeyboardInterrupt —
    the pool is ``terminate()``d, never ``close()``+``join()``ed, so a
    still-running or hung worker cannot wedge the shutdown.

    A :class:`~repro.cancel.CancelToken` is never shipped to workers
    (it is not picklable); instead the collection loop polls it each
    iteration, so a cancel lands within one poll interval and tears the
    whole pool down — already-persisted payloads stay in the store.
    """
    obs_config = obs.current_config()
    fastpath_root = str(store.base) if store is not None else None
    n_workers = min(policy.jobs, len(pending))
    # Shared-memory trace handoff: published once here, attached lazily
    # by workers (by segment name, so it also survives pool rebuilds),
    # unlinked in the finally below when the run is over.  Publishing
    # BEFORE the pool forks matters: the first segment registration
    # starts the parent's resource tracker, and only a tracker already
    # running at fork time is inherited by the workers — otherwise each
    # worker lazily spawns a private tracker that later misreports the
    # parent's (properly unlinked) segments as leaked.
    share = _publish_trace_share(pending, options, store)
    share_spec = share.spec if share is not None else None
    pool = _make_pool(n_workers)
    if pool is None:
        if share is not None:
            share.close()
        return False
    _OBS.debug(obs_names.EVT_POOL_START, jobs=n_workers, pending=len(pending))

    order = [index for index, _, _ in pending]
    queued: list[_Queued] = [
        _Queued(index=index, key=key, cell=cell, rank=rank)
        for rank, (index, key, cell) in enumerate(pending)]
    next_rank = len(queued)
    in_flight: dict[int, _InFlight] = {}
    done: dict[int, _Outcome] = {}
    collect_pos = 0

    def submit(item: _Queued, now: float) -> None:
        handle = pool.apply_async(
            execute_timed,
            ((item.index, item.key, item.cell, options, obs_config,
              policy.faults, item.attempt, fastpath_root, share_spec),))
        deadline = (now + policy.timeout_s + _DISPATCH_GRACE_S
                    if policy.timeout_s is not None else None)
        in_flight[item.index] = _InFlight(handle=handle, key=item.key,
                                          cell=item.cell,
                                          attempt=item.attempt,
                                          deadline=deadline)

    def requeue(index: int, fl: _InFlight, attempt: int, eligible_at: float) -> None:
        nonlocal next_rank
        queued.append(_Queued(index=index, key=fl.key, cell=fl.cell,
                              attempt=attempt, eligible_at=eligible_at,
                              rank=next_rank))
        next_rank += 1

    try:
        while collect_pos < len(pending):
            if cancel is not None:
                # Raises JobCancelled; the except-BaseException arm
                # below terminates the pool on the way out.
                cancel.raise_if_cancelled()
            now = time.monotonic()
            # -- dispatch: fill free worker slots with eligible attempts
            eligible = sorted((q for q in queued if q.eligible_at <= now),
                              key=lambda q: q.rank)
            for item in eligible:
                if len(in_flight) >= n_workers:
                    break
                queued.remove(item)
                submit(item, now)

            progressed = False
            # -- poll: completions, failures, and blown deadlines
            for index, fl in list(in_flight.items()):
                if fl.handle.ready():
                    progressed = True
                    del in_flight[index]
                    try:
                        _, _, payload, telemetry = fl.handle.get()
                    except Exception as exc:
                        action, delay = _attempt_failed(
                            exc, fl.key, fl.cell.label, fl.attempt, policy)
                        if action == "retry":
                            requeue(index, fl, fl.attempt + 1,
                                    time.monotonic() + delay)
                        else:
                            outcome = _Outcome(
                                index=index, key=fl.key, label=fl.cell.label,
                                status=action, attempts=fl.attempt + 1,
                                error=_describe(exc))
                            done[index] = _exhausted(outcome, policy, exc)
                        continue
                    status = "retried" if fl.attempt else "ok"
                    _persist(fl.key, payload, store, policy)
                    done[index] = _Outcome(
                        index=index, key=fl.key, label=fl.cell.label,
                        status=status, attempts=fl.attempt + 1,
                        payload=payload, telemetry=telemetry)
                elif fl.deadline is not None and now > fl.deadline:
                    # Hung (or dead-worker) cell: the only safe way to
                    # reclaim the worker is to tear the pool down.
                    progressed = True
                    _OBS.warning(obs_names.EVT_POOL_REBUILD, cell=fl.cell.label,
                                 attempt=fl.attempt + 1,
                                 in_flight=len(in_flight) - 1)
                    pool.terminate()
                    pool.join()
                    del in_flight[index]
                    timeout_exc = RunnerTimeoutError(
                        f"cell {fl.cell.label} exceeded its "
                        f"{policy.timeout_s:g}s budget")
                    action, delay = _attempt_failed(
                        timeout_exc, fl.key, fl.cell.label, fl.attempt, policy)
                    if action == "retry":
                        requeue(index, fl, fl.attempt + 1,
                                time.monotonic() + delay)
                    else:
                        outcome = _Outcome(
                            index=index, key=fl.key, label=fl.cell.label,
                            status=action, attempts=fl.attempt + 1,
                            error=_describe(timeout_exc))
                        done[index] = _exhausted(outcome, policy, timeout_exc)
                    # Innocent victims of the teardown: resubmit at the
                    # same attempt number, no retry charged.
                    for other_index, other in in_flight.items():
                        requeue(other_index, other, other.attempt,
                                time.monotonic())
                    in_flight.clear()
                    pool = _make_pool(n_workers)
                    if pool is None:
                        raise CellFailedError(
                            "could not rebuild worker pool after a cell "
                            "timeout") from timeout_exc
                    break  # restart dispatch/poll against the new pool

            # -- collect: contiguous finished prefix, in input order
            while collect_pos < len(order) and order[collect_pos] in done:
                _finish(done.pop(order[collect_pos]), results, manifest)
                collect_pos += 1

            if not progressed:
                time.sleep(_POLL_S)
    except BaseException:
        # Error path (including KeyboardInterrupt): close()+join() can
        # hang on still-running workers — terminate instead and re-raise.
        pool.terminate()
        pool.join()
        raise
    else:
        pool.close()
        pool.join()
    finally:
        # Unlink after the workers are gone (normal exit) or on the way
        # out of a teardown; attached mappings in any straggler worker
        # stay valid until it exits, but the names leave /dev/shm now.
        if share is not None:
            share.close()
    return True


# ---------------------------------------------------------------------------
# entry point


def run_cells(cells: Sequence[Cell], options: Any,
              policy: ExecutionPolicy | None = None,
              cancel: CancelToken | None = None,
              ) -> tuple[list[dict[str, Any] | None], RunManifest]:
    """Execute ``cells`` under ``policy`` (default: the global policy).

    Returns ``(payloads, manifest)`` with payloads in input order.
    Under ``keep_going``, cells whose retry budget is exhausted leave a
    ``None`` payload and a ``failed``/``timeout`` manifest record
    instead of raising.  ``options`` supplies the trace-shaping
    parameters (``n_accesses``/``warmup_frac``/``seed``/``degree``);
    see :func:`repro.runner.cells.cell_key` for what enters the cache
    key.

    ``cancel`` attaches a :class:`~repro.cancel.CancelToken`: the
    engine checkpoints it every ``check_every`` simulated accesses (and
    publishes progress through it), and a cancel/deadline surfaces as
    :class:`~repro.errors.JobCancelled` from this call — regardless of
    ``keep_going``, because a cancelled run's remaining cells must not
    execute.  Cells persisted before the cancel stay in the store.

    When tracing is on, the whole call is one ``runner.run`` span and
    every executed cell hangs a ``runner.cell`` subtree off it —
    including cells that ran in pool workers, whose spans are shipped
    back and re-parented on absorption.
    """
    policy = policy if policy is not None else _POLICY
    with span(obs_names.SPAN_RUN_CELLS, cells=len(cells), jobs=policy.jobs):
        return _run_cells(cells, options, policy, cancel)


def _run_cells(cells: Sequence[Cell], options: Any, policy: ExecutionPolicy,
               cancel: CancelToken | None = None,
               ) -> tuple[list[dict[str, Any] | None], RunManifest]:
    store = ResultStore(policy.cache_dir) if policy.use_cache else None
    manifest = RunManifest(jobs=policy.jobs, cache_enabled=policy.use_cache)
    start = time.perf_counter()

    results: list[dict[str, Any] | None] = [None] * len(cells)
    pending: list[tuple[int, str, Cell]] = []
    for index, cell in enumerate(cells):
        key = cell_key(cell, options)
        payload = store.get(key) if store is not None else None
        if payload is not None:
            results[index] = payload
            manifest.record_hit(key, cell.label)
            _OBS.debug(obs_names.EVT_CELL_CACHED, cell=cell.label, key=key[:12])
        else:
            pending.append((index, key, cell))

    if pending:
        if policy.jobs > 1 and len(pending) > 1:
            if _run_pool(pending, options, results, store, manifest,
                         policy, cancel):
                manifest.mode = "pool"
            else:
                _run_serial(pending, options, results, store, manifest,
                            policy, cancel)
                manifest.mode = "serial-fallback"
        else:
            _run_serial(pending, options, results, store, manifest,
                        policy, cancel)

    manifest.wall_s = time.perf_counter() - start
    if _OBS.enabled:
        _OBS.info(obs_names.EVT_RUN_SUMMARY, cells=manifest.n_cells, hits=manifest.hits,
                  executed=manifest.misses, failed=manifest.failed,
                  retried=manifest.retried, jobs=manifest.jobs,
                  mode=manifest.mode, wall_s=round(manifest.wall_s, 6),
                  compute_s=round(manifest.executed_s, 6),
                  cpu_s=round(manifest.executed_cpu_s, 6),
                  utilization=round(manifest.utilization, 4))
    return results, manifest
