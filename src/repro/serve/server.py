"""The asyncio experiment server: connections, workers, streaming.

One process, one event loop, three kinds of task:

* the **listener** (TCP on ``host:port`` or a Unix socket at ``path``)
  accepts connections and runs one handler task per client;
* **handler tasks** speak the JSONL protocol: handshake, then a loop of
  ``submit`` / ``status`` / ``bye`` / ``shutdown`` messages.  Admission
  decisions are made inline (the scheduler is pure and the event loop
  is single-threaded, so no locking); accepted jobs are queued and a
  condition variable wakes the workers;
* **worker tasks** (``slots`` of them) pull jobs in fair-queueing order
  and execute each cell through :func:`repro.runner.run_cells` inside
  ``asyncio.to_thread``, so the event loop keeps serving other tenants
  while a simulation runs.  Results stream back per cell as they
  complete.

Every job carries a :class:`~repro.cancel.CancelToken` from pickup to
terminal frame, and a per-job **watchdog task** polls the one thing
only the event loop can see: the admitting connection's liveness (for
the opt-in ``cancel_on_disconnect`` policy).  Deadlines ride on the
token itself — every engine checkpoint doubles as a deadline check —
so a ``cancel`` frame, a ``deadline_s``, a dropped connection, or a
:meth:`ExperimentServer.shutdown_now` stops the *simulation*, not just
the asyncio wrapper, within ``cancel_check_every`` simulated accesses.
The job then ends with a structured terminal ``done`` frame
(``cancelled`` / ``deadline_exceeded``, with a ``reason``).  A client
that disconnected mid-job without the policy simply stops receiving —
the job still runs to completion and its artifacts stay in the store.

For chaos testing, a :class:`~repro.faults.FaultPlan` with a
``partition`` probability makes the server's own write boundary fail
deterministically per ``(tenant, connection index)`` — the fixture for
proving that a partitioned tenant's jobs are reaped while other
tenants' results stay bit-identical.

Execution reuses the runner's whole fault-tolerance stack: the per-job
:class:`~repro.runner.ExecutionPolicy` carries the server's retry
budget, backoff, and per-cell timeout, and ``keep_going`` degradation
turns an exhausted cell into a ``failed`` cell message instead of a
dead worker.  With ``use_cache`` on (the default) served jobs read and
write the same content-addressed artifact store as batch runs — a job
the batch path already computed is served from cache, bit-identically.

Telemetry is fully concurrent-safe: each job runs under a
context-local :class:`repro.obs.capture` (a :mod:`contextvars`
override that travels into ``asyncio.to_thread``), so any number of
slots can execute traced cells at once without interleaving a single
event — every absorbed record is tagged with its tenant and job, and
each job's span subtree hangs off the connection span that admitted
it.  The ``status``/``metrics`` frames expose the live stats plane:
queue depths, per-tenant virtual time, the in-flight job table, and a
Prometheus text exposition of the registry.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Any

from .. import __version__, obs
from ..cancel import DEFAULT_CHECK_EVERY, CancelToken
from ..errors import JobCancelled, ProtocolError, ServeError
from ..faults import FaultPlan
from ..obs import names as obs_names
from ..obs.prom import CONTENT_TYPE, render_prometheus
from ..obs.trace import Span, span
from ..runner import ExecutionPolicy, run_cells
from . import protocol
from .scheduler import AdmissionConfig, FairScheduler, Job

#: Server telemetry scope (off until obs.configure()).
_OBS = obs.scope("serve.server")

#: Queue-depth histogram buckets (jobs, not seconds).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                       128.0, 256.0)

#: A connection this deep into malformed frames is garbage, not a
#: client with a bug; it gets disconnected.
MAX_MALFORMED_PER_CONN = 32

#: Frames a partitioned connection delivers before it drops: the
#: welcome and the accepted frame, so the job is underway.
NET_AFTER_WRITES = 2

#: How often a job's watchdog checks its admitting connection.
WATCHDOG_POLL_S = 0.05


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    """One line from the client; a connection it reset reads as EOF.

    When the peer hangs up first, the stream hands one ``ConnectionError``
    to the next read (and to ``wait_closed``); uncaught here it would end
    the connection task as an unhandled exception.
    """
    try:
        return await reader.readline()
    except ConnectionError:
        return b""


@dataclass(frozen=True)
class ServeConfig:
    """One server instance: where it listens and how it executes.

    Exactly one of ``path`` (Unix socket) or ``host``/``port`` (TCP) is
    used; ``path`` wins when both are set.  ``port=0`` binds an
    ephemeral port (see :attr:`ExperimentServer.address`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    path: str | None = None
    slots: int = 2
    retries: int = 1
    timeout_s: float | None = None
    use_cache: bool = True
    cache_dir: str | None = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    max_cells_per_job: int = 16
    #: Whether a client ``shutdown`` message may drain-stop the server.
    allow_remote_shutdown: bool = True
    #: Default cancel-on-disconnect policy for submits that carry none.
    cancel_on_disconnect: bool = False
    #: Engine cancellation staleness bound, in simulated accesses.
    cancel_check_every: int = DEFAULT_CHECK_EVERY
    #: Chaos-only network fault plan applied at the write boundary.
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ServeError("slots must be >= 1")
        if self.max_cells_per_job < 1:
            raise ServeError("max_cells_per_job must be >= 1")
        if self.cancel_check_every < 1:
            raise ServeError("cancel_check_every must be >= 1")

    def policy(self) -> ExecutionPolicy:
        """The execution policy every served job runs under: in-thread
        serial, one job per worker slot."""
        return ExecutionPolicy(jobs=1,
                               use_cache=self.use_cache,
                               cache_dir=self.cache_dir,
                               retries=self.retries,
                               timeout_s=self.timeout_s,
                               keep_going=True)


class _Connection:
    """One client link: serialised writes + liveness tracking.

    The chaos plan can mark the link ``partitioned`` (rolled once per
    tenant connection by the server): it then closes right after its
    :data:`NET_AFTER_WRITES`-th delivered frame.  That happens here, at
    the write boundary, so the rest of the server exercises its real
    dead-connection paths.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.tenant = ""
        self.closed = False
        #: The connection's open span; jobs admitted on this link hang
        #: their span subtrees off it (the job runs in a worker task,
        #: so the parent must travel explicitly, not via context).
        self.span: Span | None = None
        #: Injected network partition; see class docstring.
        self.partitioned = False
        self._writes = 0
        self._lock = asyncio.Lock()

    async def send(self, message: dict[str, Any]) -> bool:
        """Write one frame; False (never raises) on a dead connection."""
        if self.closed:
            return False
        frame = protocol.encode_message(message)
        try:
            async with self._lock:
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, OSError):
            self.closed = True
            return False
        self._writes += 1
        if self.partitioned and self._writes >= NET_AFTER_WRITES:
            # Delivered, then the network went dark under the client.
            await self.close()
        return True

    async def close(self) -> None:
        self.closed = True
        with contextlib.suppress(ConnectionError, OSError):
            self.writer.close()
            await self.writer.wait_closed()


@dataclass
class _JobRecord:
    """One job's live lifecycle state, admission to terminal frame."""

    job: Job
    conn: _Connection | None
    state: str = protocol.STATE_QUEUED
    token: CancelToken | None = None
    slot: int = -1
    started_at: float = 0.0
    cells_done: int = 0
    watchdog: asyncio.Task[None] | None = None

    @property
    def accesses_done(self) -> int:
        return self.token.progress if self.token is not None else 0


class ExperimentServer:
    """Multi-tenant front-end over the cell runner (see module doc)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.scheduler = FairScheduler(admission=self.config.admission)
        self._policy = self.config.policy()
        self._server: asyncio.AbstractServer | None = None
        self._cond: asyncio.Condition = asyncio.Condition()
        self._done: asyncio.Event = asyncio.Event()
        self._stop_workers = False
        self._workers: list[asyncio.Task[None]] = []
        #: Every queued or running job (job_id -> record); single event
        #: loop, so plain dict updates suffice.  Terminal jobs leave.
        self._jobs: dict[str, _JobRecord] = {}
        self._job_counter = 0
        #: Connections accepted per tenant — the partition roll index.
        self._conn_counts: dict[str, int] = {}
        self._started_at = 0.0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and spawn the worker tasks."""
        if self._server is not None:
            raise ServeError("server already started")
        if self.config.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.config.path,
                limit=protocol.MAX_LINE_BYTES + 2)
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.config.host, port=self.config.port,
                limit=protocol.MAX_LINE_BYTES + 2)
        self._started_at = time.monotonic()
        self._workers = [asyncio.create_task(self._worker(slot),
                                             name=f"serve-worker-{slot}")
                         for slot in range(self.config.slots)]
        _OBS.info(obs_names.EVT_SERVER_START, address=str(self.address),
                  slots=self.config.slots,
                  max_queued=self.config.admission.max_queued_total)

    @property
    def address(self) -> str:
        """``unix:<path>`` or ``host:port`` (the *bound* port)."""
        if self.config.path is not None:
            return f"unix:{self.config.path}"
        if self._server is not None and self._server.sockets:
            host, port = self._server.sockets[0].getsockname()[:2]
            return f"{host}:{port}"
        return f"{self.config.host}:{self.config.port}"

    async def serve_forever(self) -> None:
        """Block until a drain shutdown completes."""
        if self._server is None:
            await self.start()
        await self._done.wait()

    async def request_shutdown(self) -> None:
        """Begin a graceful drain: shed new work, finish admitted work.

        Every job admitted before this call still runs to completion
        and streams its results; only *new* submits are shed (reason
        ``stopping``).  The server exits when the queue is empty and
        nothing is in flight.
        """
        self.scheduler.draining = True
        async with self._cond:
            self._maybe_finish_drain()
            self._cond.notify_all()

    async def shutdown_now(self) -> None:
        """Hard drain: stop admitted work instead of finishing it.

        Queued jobs leave the queue with a terminal ``cancelled``
        (reason ``server_shutdown``) frame; running jobs get their
        token cancelled and send the same terminal frame as they
        unwind — no client is left holding a silently dropped
        connection.  The server still exits through the normal drain
        path once the interrupted jobs have stopped.
        """
        self.scheduler.draining = True
        for record in list(self._jobs.values()):
            if record.state == protocol.STATE_QUEUED:
                if self.scheduler.cancel_queued(record.job.job_id) is None:
                    continue  # pragma: no cover - racing a worker pickup
                self._jobs.pop(record.job.job_id, None)
                self._note_cancel(record, protocol.REASON_SERVER_SHUTDOWN,
                                  protocol.STATUS_CANCELLED)
                if record.conn is not None:
                    wait_s = time.monotonic() - record.job.enqueued_at
                    await record.conn.send(protocol.done(
                        record.job.request_id, record.job.job_id,
                        protocol.STATUS_CANCELLED, 0, 0, wait_s, 0.0,
                        reason=protocol.REASON_SERVER_SHUTDOWN))
            elif record.token is not None:
                record.token.cancel(protocol.REASON_SERVER_SHUTDOWN)
        async with self._cond:
            self._maybe_finish_drain()
            self._cond.notify_all()

    async def aclose(self) -> None:
        """Drain-stop and wait for the workers and listener to exit."""
        await self.request_shutdown()
        await self._done.wait()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)

    def _maybe_finish_drain(self) -> None:
        """Under ``_cond``: complete the drain when no work remains."""
        if (self.scheduler.draining and not self._done.is_set()
                and self.scheduler.queue_depth == 0
                and self.scheduler.in_flight == 0):
            self._stop_workers = True
            if self._server is not None:
                self._server.close()
            _OBS.info(obs_names.EVT_SERVER_STOP,
                      uptime_s=round(time.monotonic() - self._started_at, 3),
                      **{k: v for k, v in self.scheduler.stats().items()
                         if isinstance(v, (int, bool))})
            self._done.set()

    # -- connection handling --------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        malformed = 0
        try:
            try:
                frame = await _read_frame(reader)
                conn.tenant = protocol.parse_hello(protocol.decode_line(frame))
            except (ProtocolError, ValueError) as exc:
                await conn.send(protocol.error(str(exc)))
                return
            self._roll_partition(conn)
            _OBS.info(obs_names.EVT_CLIENT_CONNECT, tenant=conn.tenant)
            await conn.send(protocol.welcome(__version__))
            with span(obs_names.SPAN_CONNECTION, tenant=conn.tenant) as conn_span:
                conn.span = conn_span
                while True:
                    try:
                        frame = await _read_frame(reader)
                    except ValueError:
                        # Overlong line: the stream is desynchronised and
                        # cannot be safely re-framed — drop the client.
                        await conn.send(protocol.error("frame too long"))
                        break
                    if not frame:
                        break  # EOF
                    try:
                        message = protocol.decode_line(frame)
                        keep_open = await self._dispatch(conn, message)
                    except ProtocolError as exc:
                        malformed += 1
                        self._note_malformed(conn, exc)
                        await conn.send(protocol.error(
                            str(exc), request_id=self._request_id_of(frame)))
                        if malformed >= MAX_MALFORMED_PER_CONN:
                            break
                        continue
                    if not keep_open:
                        break
        finally:
            await conn.close()
            await self._reap_disconnected(conn)
            _OBS.info(obs_names.EVT_CLIENT_DISCONNECT, tenant=conn.tenant,
                      malformed=malformed)

    def _roll_partition(self, conn: _Connection) -> None:
        """Roll this connection's chaos-plan partition (if any)."""
        plan = self.config.faults
        if plan is None:
            return
        index = self._conn_counts.get(conn.tenant, 0)
        self._conn_counts[conn.tenant] = index + 1
        if not plan.should_partition(conn.tenant, index):
            return
        conn.partitioned = True
        if _OBS.enabled:
            _OBS.warning(obs_names.EVT_NET_FAULT, tenant=conn.tenant,
                         conn_index=index, mode="partition")
            _OBS.counter(obs_names.MET_NET_FAULTS).inc()

    async def _reap_disconnected(self, conn: _Connection) -> None:
        """Apply each job's cancel-on-disconnect policy when its
        admitting connection dies.  Queued jobs leave the queue
        immediately (nobody is listening for a terminal frame); running
        jobs get their token cancelled and unwind through the normal
        terminal path."""
        notify = False
        for record in list(self._jobs.values()):
            if record.conn is not conn or not record.job.cancel_on_disconnect:
                continue
            if record.state == protocol.STATE_QUEUED:
                if self.scheduler.cancel_queued(record.job.job_id) is not None:
                    self._note_cancel(record, protocol.REASON_DISCONNECTED,
                                      protocol.STATUS_CANCELLED)
                    self._jobs.pop(record.job.job_id, None)
                    notify = True
            elif record.token is not None:
                record.token.cancel(protocol.REASON_DISCONNECTED)
        if notify:
            async with self._cond:
                self._maybe_finish_drain()
                self._cond.notify_all()

    @staticmethod
    def _request_id_of(frame: bytes) -> str | None:
        """Best-effort request id from a frame that failed validation."""
        import json

        try:
            parsed = json.loads(frame.decode("utf-8", "replace"))
        except json.JSONDecodeError:
            return None
        if isinstance(parsed, dict) and isinstance(parsed.get("id"), str):
            return parsed["id"]
        return None

    def _note_malformed(self, conn: _Connection, exc: ProtocolError) -> None:
        if _OBS.enabled:
            _OBS.warning(obs_names.EVT_REQUEST_MALFORMED, tenant=conn.tenant,
                         error=str(exc))
            _OBS.counter(obs_names.MET_REQUESTS_MALFORMED).inc()

    async def _dispatch(self, conn: _Connection,
                        message: dict[str, Any]) -> bool:
        """Handle one decoded client message; False closes the link."""
        kind = message["type"]
        if kind not in protocol.CLIENT_TYPES:
            raise ProtocolError(f"unexpected message type {kind!r}")
        if kind == protocol.BYE:
            return False
        if kind == protocol.STATUS:
            await conn.send(protocol.stats(self._stats_body()))
            return True
        if kind == protocol.METRICS:
            await conn.send(protocol.metrics(self._render_metrics(),
                                             CONTENT_TYPE))
            return True
        if kind == protocol.SHUTDOWN:
            if not self.config.allow_remote_shutdown:
                raise ProtocolError("shutdown is disabled on this server")
            await conn.send({"type": protocol.STOPPING})
            await self.request_shutdown()
            return True
        if kind == protocol.CANCEL:
            await self._cancel(conn, message)
            return True
        if kind == protocol.JOB_STATUS:
            await self._job_status(conn, message)
            return True
        await self._submit(conn, message)
        return True

    def _owned_record(self, conn: _Connection,
                      message: dict[str, Any]) -> tuple[str, _JobRecord | None]:
        """Resolve a cancel/job_status target to this tenant's record.

        Unknown ids and other tenants' jobs look identical from the
        outside (no cross-tenant existence oracle); both return None.
        """
        job_id = message.get("job")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError(f"{message['type']} needs a string 'job' field")
        record = self._jobs.get(job_id)
        if record is not None and record.job.tenant != conn.tenant:
            record = None
        return job_id, record

    async def _cancel(self, conn: _Connection,
                      message: dict[str, Any]) -> None:
        """Handle a ``cancel`` frame for a queued or running job.

        A miss is answered with an ``error`` frame rather than raised:
        cancelling a job that just finished is an ordinary race, not a
        protocol violation, and must not count toward the malformed
        budget.
        """
        request_id = message.get("id") if isinstance(message.get("id"), str) \
            else None
        job_id, record = self._owned_record(conn, message)
        if record is None:
            await conn.send(protocol.error(
                f"unknown job {job_id!r} (already terminal, or not yours)",
                request_id=request_id))
            return
        await conn.send(protocol.cancelling(job_id,
                                            protocol.REASON_CLIENT_CANCEL,
                                            request_id=request_id))
        if record.state == protocol.STATE_QUEUED:
            if self.scheduler.cancel_queued(job_id) is None:
                # Raced a worker pickup between dispatch and here; the
                # token path below will land instead.
                if record.token is not None:  # pragma: no cover - race
                    record.token.cancel(protocol.REASON_CLIENT_CANCEL)
                return
            self._jobs.pop(job_id, None)
            self._note_cancel(record, protocol.REASON_CLIENT_CANCEL,
                              protocol.STATUS_CANCELLED)
            wait_s = time.monotonic() - record.job.enqueued_at
            await conn.send(protocol.done(
                record.job.request_id, job_id, protocol.STATUS_CANCELLED,
                0, 0, wait_s, 0.0, reason=protocol.REASON_CLIENT_CANCEL))
            async with self._cond:
                self._maybe_finish_drain()
                self._cond.notify_all()
        elif record.token is not None:
            record.token.cancel(protocol.REASON_CLIENT_CANCEL)

    async def _job_status(self, conn: _Connection,
                          message: dict[str, Any]) -> None:
        """Answer a ``job_status`` poll with live lifecycle progress."""
        job_id, record = self._owned_record(conn, message)
        if record is None:
            await conn.send(protocol.error(
                f"unknown job {job_id!r} (already terminal, or not yours)"))
            return
        await conn.send(protocol.job_status(
            job_id, record.state, record.accesses_done, record.cells_done,
            len(record.job.cells)))

    def _stats_body(self) -> dict[str, Any]:
        """The live stats plane: scheduler view + in-flight job table +
        registered-name registry metrics (counters and gauges only —
        histograms travel on the ``metrics`` frame, where cumulative
        buckets have a standard wire form)."""
        now = time.monotonic()
        body = self.scheduler.stats()
        body["address"] = self.address
        body["uptime_s"] = round(now - self._started_at, 3)
        body["in_flight_jobs"] = [
            {"job": job_id, "tenant": record.job.tenant,
             "slot": record.slot, "cells": len(record.job.cells),
             "cells_done": record.cells_done,
             "accesses_done": record.accesses_done,
             "running_s": round(now - record.started_at, 3)}
            for job_id, record in sorted(self._jobs.items())
            if record.state == protocol.STATE_RUNNING]
        st = obs.base_state()
        if st is not None:
            snapshot = st.registry.snapshot()
            registered = obs_names.METRIC_NAMES
            body["metrics"] = {
                kind: {name: value
                       for name, value in snapshot.get(kind, {}).items()
                       if name.rpartition(".")[2] in registered}
                for kind in ("counters", "gauges")}
        return body

    def _render_metrics(self) -> str:
        """The Prometheus exposition: registry snapshot (when telemetry
        is on) plus live gauges synthesised from the scheduler — the
        latter exist even on an untraced server."""
        st = obs.base_state()
        snapshot = st.registry.snapshot() if st is not None else {}
        live: dict[str, float] = {
            f"serve.server.{obs_names.MET_QUEUE_DEPTH_NOW}":
                float(self.scheduler.queue_depth),
            f"serve.server.{obs_names.MET_IN_FLIGHT_NOW}":
                float(self.scheduler.in_flight),
            f"serve.server.{obs_names.MET_UPTIME_S}":
                round(time.monotonic() - self._started_at, 3),
        }
        for name, row in self.scheduler.stats()["tenants"].items():
            live[f"serve.tenant.{name}.{obs_names.MET_TENANT_VTIME}"] = \
                float(row["vtime"])
        return render_prometheus(snapshot, extra_gauges=live)

    async def _submit(self, conn: _Connection,
                      message: dict[str, Any]) -> None:
        request_id = message.get("id")
        if not isinstance(request_id, str) or not request_id:
            raise ProtocolError("submit needs a string 'id' field")
        spec = protocol.JobSpec.from_dict(message.get("spec"))
        deadline_s = protocol.parse_submit_deadline(message)
        cancel_on_disconnect = protocol.parse_submit_cancel_on_disconnect(
            message)
        if cancel_on_disconnect is None:
            cancel_on_disconnect = self.config.cancel_on_disconnect
        cells, options = spec.compile()
        if len(cells) > self.config.max_cells_per_job:
            raise ProtocolError(
                f"job expands to {len(cells)} cells; this server caps "
                f"jobs at {self.config.max_cells_per_job}")
        self._job_counter += 1
        job = Job(job_id=f"j{self._job_counter}", request_id=request_id,
                  tenant=conn.tenant, spec=spec, cells=cells,
                  options=options, enqueued_at=time.monotonic(),
                  deadline_s=deadline_s,
                  cancel_on_disconnect=cancel_on_disconnect)
        admission = self.scheduler.submit(job)
        if _OBS.enabled:
            _OBS.histogram(obs_names.MET_QUEUE_DEPTH,
                           QUEUE_DEPTH_BUCKETS).observe(admission.queue_depth)
        if not admission.accepted:
            if _OBS.enabled:
                _OBS.warning(obs_names.EVT_JOB_SHED, tenant=job.tenant,
                             job=job.job_id, reason=admission.reason,
                             retry_after_s=round(admission.retry_after_s, 4))
                _OBS.counter(obs_names.MET_JOBS_SHED).inc()
            await conn.send(protocol.shed(request_id, admission.reason,
                                          admission.retry_after_s))
            return
        self._jobs[job.job_id] = _JobRecord(job=job, conn=conn)
        if _OBS.enabled:
            _OBS.info(obs_names.EVT_JOB_ADMITTED, tenant=job.tenant,
                      job=job.job_id, cells=len(cells),
                      queue_depth=admission.queue_depth)
            _OBS.counter(obs_names.MET_JOBS_ADMITTED).inc()
        await conn.send(protocol.accepted(request_id, job.job_id,
                                          admission.queue_depth,
                                          admission.tenant_depth))
        async with self._cond:
            self._cond.notify_all()

    # -- execution ------------------------------------------------------
    async def _worker(self, slot: int) -> None:
        while True:
            async with self._cond:
                while not self.scheduler.has_work() and not self._stop_workers:
                    await self._cond.wait()
                if self._stop_workers and not self.scheduler.has_work():
                    return
                job = self.scheduler.next_job()
            if job is None:  # pragma: no cover - racing another slot
                continue
            await self._run_job(job, slot)
            async with self._cond:
                # A freed in-flight slot may make a capped tenant
                # eligible again, and a drain may now be complete.
                self._maybe_finish_drain()
                self._cond.notify_all()

    def _note_cancel(self, record: _JobRecord, reason: str,
                     status: str) -> None:
        """Telemetry for one cancelled/reaped job (queued or running)."""
        if not _OBS.enabled:
            return
        _OBS.warning(obs_names.EVT_JOB_CANCELLED, tenant=record.job.tenant,
                     job=record.job.job_id, reason=reason, status=status,
                     cells_done=record.cells_done,
                     accesses_done=record.accesses_done)
        if status == protocol.STATUS_DEADLINE:
            _OBS.counter(obs_names.MET_JOBS_DEADLINE_EXCEEDED).inc()
        else:
            _OBS.counter(obs_names.MET_JOBS_CANCELLED).inc()
        token = record.token
        if token is not None and token.cancelled_at > 0.0:
            _OBS.histogram(obs_names.MET_CANCEL_LATENCY_S).observe(
                max(time.monotonic() - token.cancelled_at, 0.0))

    async def _watchdog(self, record: _JobRecord) -> None:
        """Poll the admitting connection's liveness for one running job
        (cancel-on-disconnect).  The deadline needs no watchdog — the
        token checks it at every engine checkpoint."""
        job, token, conn = record.job, record.token, record.conn
        if token is None:  # pragma: no cover - set before the task spawns
            return
        with span(obs_names.SPAN_WATCHDOG,
                  parent=conn.span if conn is not None else None,
                  tenant=job.tenant, job=job.job_id):
            while not token.cancelled:
                await asyncio.sleep(WATCHDOG_POLL_S)
                if record.state != protocol.STATE_RUNNING:
                    return
                if (job.cancel_on_disconnect and conn is not None
                        and conn.closed):
                    token.cancel(protocol.REASON_DISCONNECTED)

    async def _run_job(self, job: Job, slot: int) -> None:
        """Execute one admitted job on this worker slot.

        The whole job runs under a context-local :class:`obs.capture`,
        so concurrent slots record into isolated buffers; the capture's
        events, metrics, and spans are folded back into the server's
        base state afterwards, tagged with the tenant and job.  The
        job span hangs off the admitting connection's span (an explicit
        parent — the connection lives in a different task), and each
        cell's subtree — including the runner spans recorded inside
        ``asyncio.to_thread`` — nests under a ``serve.cell`` span.

        The job's :class:`CancelToken` is created here (so a
        ``deadline_s`` measures service time, not queue time), handed
        to :func:`run_cells` for engine checkpoints, watched by a
        sibling watchdog task, and settled into one terminal ``done``
        frame whatever way the job ends.
        """
        record = self._jobs.get(job.job_id)
        if record is None:  # pragma: no cover - reaped before pickup
            record = _JobRecord(job=job, conn=None)
        record.state = protocol.STATE_RUNNING
        record.slot = slot
        record.token = CancelToken(
            deadline_s=job.deadline_s,
            check_every=self.config.cancel_check_every)
        record.started_at = job.started_at = time.monotonic()
        wait_s = job.started_at - job.enqueued_at
        conn = record.conn
        record.watchdog = asyncio.create_task(
            self._watchdog(record), name=f"watchdog-{job.job_id}")
        cancel_reason = ""
        try:
            with obs.capture(obs.current_config()) as cap:
                n_ok, n_failed, cancel_reason = await self._execute_job(
                    job, slot, conn, wait_s, record)
            obs.absorb(cap.events, cap.metrics,
                       tag={"tenant": job.tenant, "job": job.job_id},
                       spans=cap.spans)
        finally:
            record.state = "terminal"
            self._jobs.pop(job.job_id, None)
            record.watchdog.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await record.watchdog
        service_s = time.monotonic() - job.started_at
        ok = n_failed == 0 and not cancel_reason
        if not cancel_reason:
            status = protocol.STATUS_OK if ok else protocol.STATUS_FAILED
        elif cancel_reason == protocol.STATUS_DEADLINE:
            status = protocol.STATUS_DEADLINE
        else:
            status = protocol.STATUS_CANCELLED
        self.scheduler.finish(job, service_s, wait_s=wait_s, ok=ok,
                              cancelled=bool(cancel_reason))
        if _OBS.enabled:
            outcome = {"tenant": job.tenant, "job": job.job_id,
                       "cells": len(job.cells), "failed": n_failed,
                       "wait_s": round(wait_s, 6),
                       "service_s": round(service_s, 6)}
            if ok:
                _OBS.info(obs_names.EVT_JOB_COMPLETED, **outcome)
                _OBS.counter(obs_names.MET_JOBS_COMPLETED).inc()
            elif not cancel_reason:
                _OBS.warning(obs_names.EVT_JOB_FAILED, **outcome)
                _OBS.counter(obs_names.MET_JOBS_FAILED).inc()
            _OBS.histogram(obs_names.MET_JOB_WAIT_S).observe(wait_s)
            _OBS.histogram(obs_names.MET_JOB_SERVICE_S).observe(service_s)
            tenant_scope = obs.scope(f"serve.tenant.{job.tenant}")
            tenant_scope.histogram(obs_names.MET_JOB_WAIT_S).observe(wait_s)
            tenant_scope.histogram(obs_names.MET_JOB_SERVICE_S).observe(service_s)
        if cancel_reason:
            self._note_cancel(record, cancel_reason, status)
        if conn is not None:
            await conn.send(protocol.done(
                job.request_id, job.job_id, status, n_ok, n_failed,
                wait_s, service_s, reason=cancel_reason))

    async def _execute_job(self, job: Job, slot: int,
                           conn: _Connection | None, wait_s: float,
                           record: _JobRecord) -> tuple[int, int, str]:
        """The captured body of one job: cell loop + streaming.

        Returns ``(n_ok, n_failed, cancel_reason)``; a non-empty reason
        means the loop was interrupted mid-job (the current cell's
        simulation raised :class:`JobCancelled`, or the token tripped
        between cells) and the remaining cells never ran.
        """
        _OBS.info(obs_names.EVT_JOB_STARTED, tenant=job.tenant,
                  job=job.job_id, slot=slot, wait_s=round(wait_s, 6))
        n_ok = n_failed = 0
        token = record.token
        if token is None:  # pragma: no cover - set before the slot runs us
            raise ServeError(f"job {job.job_id} has no cancel token")
        parent = conn.span if conn is not None else None
        with span(obs_names.SPAN_JOB, parent=parent, tenant=job.tenant,
                  job=job.job_id, slot=slot):
            for seq, cell in enumerate(job.cells):
                if token.cancelled:
                    return n_ok, n_failed, token.reason
                try:
                    with span(obs_names.SPAN_SERVE_CELL, cell=cell.label):
                        payloads, _ = await asyncio.to_thread(
                            run_cells, [cell], job.options, self._policy,
                            token)
                    payload = payloads[0]
                except JobCancelled as exc:
                    return n_ok, n_failed, exc.reason
                except Exception as exc:  # runner bug or misconfiguration
                    payload = None
                    _OBS.error(obs_names.EVT_JOB_FAILED, tenant=job.tenant,
                               job=job.job_id, cell=cell.label,
                               error=f"{type(exc).__name__}: {exc}")
                status = "ok" if payload is not None else "failed"
                if payload is not None:
                    n_ok += 1
                else:
                    n_failed += 1
                record.cells_done += 1
                if conn is not None:
                    await conn.send(protocol.cell_result(
                        job.request_id, job.job_id, seq, len(job.cells),
                        cell.label, status, payload))
        return n_ok, n_failed, ""
