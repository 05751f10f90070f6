"""Wire protocol of the experiment server: JSONL framing + job specs.

One message per line, UTF-8 JSON objects, newline-terminated — the
same framing as the obs event trace, chosen for the same reasons: it is
greppable, streams incrementally, survives partial reads, and needs no
dependency.  Every message carries a ``type`` field; unknown types and
undecodable lines raise :class:`~repro.errors.ProtocolError`, which the
server answers with an ``error`` message instead of dropping the
connection (one malformed request must not kill a tenant's healthy
jobs).

Client -> server: ``hello`` (handshake: tenant + protocol version),
``submit`` (a :class:`JobSpec`, optionally with a ``deadline_s`` and a
``cancel_on_disconnect`` policy), ``cancel`` (stop a submitted job),
``job_status`` (poll one job's live progress), ``status``, ``metrics``
(Prometheus text exposition of the server's live registry), ``bye``,
``shutdown`` (drain and exit — admin).  Server -> client: ``welcome``,
``accepted`` / ``shed`` (admission decision; a shed carries
``retry_after_s``), ``cancelling`` (cancel acknowledged; the terminal
verdict still arrives as ``done``), ``job_status`` (progress reply:
accesses simulated / cells done), ``cell`` (one streamed cell
payload), ``done`` (job complete — terminal ``status`` is one of
:data:`TERMINAL_STATUSES`, with a structured ``reason`` when the job
did not run to completion), ``stats``, ``metrics``, ``error``,
``stopping``.

A :class:`JobSpec` is the service-tier twin of one batch CLI
invocation: it validates against the same workload/prefetcher
registries and value ranges, then :meth:`JobSpec.compile` lowers it to
the *same* :class:`~repro.runner.Cell` objects and
:class:`~repro.experiments.common.ExperimentOptions` the batch path
builds — so the cell cache keys, the artifact store entries, and the
payload bytes of a served job are identical to ``domino-repro run``
over the same parameters.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import Any

from ..config import SystemConfig
from ..errors import ProtocolError
from ..experiments.common import ExperimentOptions
from ..prefetchers.registry import prefetcher_names
from ..runner import Cell
from ..workloads import workload_names

#: Bump on any incompatible message-shape change; the handshake rejects
#: clients speaking a different version.
PROTO_VERSION = 1

#: Framing guard: longer lines are rejected before JSON parsing.
MAX_LINE_BYTES = 256 * 1024

# -- message types ----------------------------------------------------------
HELLO = "hello"
WELCOME = "welcome"
SUBMIT = "submit"
ACCEPTED = "accepted"
SHED = "shed"
CANCEL = "cancel"
CANCELLING = "cancelling"
JOB_STATUS = "job_status"
CELL = "cell"
DONE = "done"
STATUS = "status"
STATS = "stats"
METRICS = "metrics"
ERROR = "error"
BYE = "bye"
SHUTDOWN = "shutdown"
STOPPING = "stopping"

#: Types a client may send (anything else is a protocol error).
CLIENT_TYPES = frozenset({HELLO, SUBMIT, CANCEL, JOB_STATUS, STATUS,
                          METRICS, BYE, SHUTDOWN})

# -- job lifecycle ----------------------------------------------------------
# queued -> running -> {ok, failed, cancelled, deadline_exceeded}; see
# docs/SERVING.md for the full state machine.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"
STATUS_DEADLINE = "deadline_exceeded"

#: Every status a ``done`` frame may carry.
TERMINAL_STATUSES = frozenset({STATUS_OK, STATUS_FAILED, STATUS_CANCELLED,
                               STATUS_DEADLINE})

#: Structured reasons a cancellation can carry (``done.reason`` /
#: ``cancelling.reason``).
REASON_CLIENT_CANCEL = "client_cancel"
REASON_DISCONNECTED = "disconnected"
REASON_SERVER_SHUTDOWN = "server_shutdown"

#: Tenant names are path/metric-safe tokens.
_TENANT_RE = re.compile(r"^[a-z0-9][a-z0-9_.-]{0,63}$")

#: Cell kinds a job spec may request (``table1`` is static output with
#: no simulation behind it — nothing to serve).
SPEC_KINDS = ("trace", "opportunity", "multicore")

#: Value ranges enforced at admission; generous for real use, tight
#: enough that a single job cannot monopolise a worker slot for hours.
N_ACCESSES_RANGE = (1_000, 2_000_000)
DEGREE_RANGE = (1, 64)
MAX_CELLS_PER_JOB = 64


# -- framing ----------------------------------------------------------------


def encode_message(message: dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline, UTF-8."""
    try:
        text = json.dumps(message, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserialisable message: {exc}") from exc
    return text.encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one frame into a message dict (``type`` guaranteed)."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte limit")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from exc
    text = line.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        message = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    kind = message.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("message has no 'type' field")
    return message


# -- job specs --------------------------------------------------------------


def _override_fields() -> dict[str, type]:
    """Scalar :class:`SystemConfig` fields a spec may override."""
    defaults = SystemConfig()
    return {f.name: type(getattr(defaults, f.name))
            for f in dataclasses.fields(SystemConfig)
            if isinstance(getattr(defaults, f.name), (int, float))}


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        raise ProtocolError(f"spec field {name}={value!r} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class JobSpec:
    """One validated experiment request (the unit of admission).

    ``degrees`` fans a ``trace`` job into one cell per degree (streamed
    back individually); ``opportunity`` and ``multicore`` jobs are
    single-cell.  ``overrides`` are scalar :class:`SystemConfig` fields
    applied exactly as the batch path applies them.
    """

    workload: str
    prefetcher: str = "domino"
    kind: str = "trace"
    degrees: tuple[int, ...] = (4,)
    n_accesses: int = 60_000
    warmup_frac: float = 0.5
    seed: int = 1234
    config_name: str = "default"
    overrides: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    _FIELDS = frozenset({"workload", "prefetcher", "kind", "degrees",
                         "n_accesses", "warmup_frac", "seed", "config_name",
                         "overrides"})

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ProtocolError(
                f"unknown spec kind {self.kind!r}; known: {', '.join(SPEC_KINDS)}")
        if self.workload not in workload_names():
            raise ProtocolError(f"unknown workload {self.workload!r}")
        known = set(prefetcher_names())
        if self.kind == "multicore":
            known.add("baseline")
        if self.prefetcher not in known:
            raise ProtocolError(f"unknown prefetcher {self.prefetcher!r}")
        if not self.degrees:
            raise ProtocolError("spec needs at least one degree")
        if len(self.degrees) > MAX_CELLS_PER_JOB:
            raise ProtocolError(
                f"{len(self.degrees)} degrees exceed the "
                f"{MAX_CELLS_PER_JOB}-cell job limit")
        for degree in self.degrees:
            _check_range("degrees", degree, *DEGREE_RANGE)
        _check_range("n_accesses", self.n_accesses, *N_ACCESSES_RANGE)
        _check_range("warmup_frac", self.warmup_frac, 0.0, 0.9)
        _check_range("seed", self.seed, 0, 2**32 - 1)
        if self.config_name not in ("default", "timing"):
            raise ProtocolError(f"unknown config name {self.config_name!r}")
        allowed = _override_fields()
        for key, value in self.overrides:
            if key not in allowed:
                raise ProtocolError(
                    f"override {key!r} is not a scalar SystemConfig field")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError(
                    f"override {key}={value!r} must be a number")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, obj: Any) -> "JobSpec":
        """Validate an untrusted ``submit`` spec into a :class:`JobSpec`."""
        if not isinstance(obj, dict):
            raise ProtocolError("spec must be a JSON object")
        unknown = set(obj) - cls._FIELDS - {"degree"}
        if unknown:
            raise ProtocolError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}")
        fields: dict[str, Any] = {}
        for name, kind in (("workload", str), ("prefetcher", str),
                           ("kind", str), ("config_name", str)):
            if name in obj:
                if not isinstance(obj[name], kind):
                    raise ProtocolError(f"spec field {name!r} must be a string")
                fields[name] = obj[name]
        if "workload" not in fields:
            raise ProtocolError("spec needs a 'workload' field")
        for name in ("n_accesses", "seed"):
            if name in obj:
                if not isinstance(obj[name], int) or isinstance(obj[name], bool):
                    raise ProtocolError(f"spec field {name!r} must be an integer")
                fields[name] = obj[name]
        if "warmup_frac" in obj:
            value = obj["warmup_frac"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError("spec field 'warmup_frac' must be a number")
            fields["warmup_frac"] = float(value)
        if "degree" in obj and "degrees" in obj:
            raise ProtocolError("spec has both 'degree' and 'degrees'")
        degrees = obj.get("degrees", [obj["degree"]] if "degree" in obj else None)
        if degrees is not None:
            if not isinstance(degrees, list) or not all(
                    isinstance(d, int) and not isinstance(d, bool)
                    for d in degrees):
                raise ProtocolError("spec degrees must be a list of integers")
            fields["degrees"] = tuple(degrees)
        overrides = obj.get("overrides")
        if overrides is not None:
            if not isinstance(overrides, dict):
                raise ProtocolError("spec overrides must be an object")
            fields["overrides"] = tuple(sorted(overrides.items()))
        return cls(**fields)

    def to_dict(self) -> dict[str, Any]:
        """The JSON form a client puts in a ``submit`` message."""
        return {
            "workload": self.workload,
            "prefetcher": self.prefetcher,
            "kind": self.kind,
            "degrees": list(self.degrees),
            "n_accesses": self.n_accesses,
            "warmup_frac": self.warmup_frac,
            "seed": self.seed,
            "config_name": self.config_name,
            "overrides": dict(self.overrides),
        }

    # -- lowering -------------------------------------------------------
    def compile(self) -> tuple[list[Cell], ExperimentOptions]:
        """Lower to the exact cells + options the batch path would run.

        Every cell carries an explicit ``degree`` so its cache key never
        depends on the options' default degree — the cornerstone of the
        served == batch bit-identity guarantee.
        """
        options = ExperimentOptions(
            n_accesses=self.n_accesses, warmup_frac=self.warmup_frac,
            seed=self.seed, degree=self.degrees[0],
            workloads=(self.workload,))
        if self.kind == "trace":
            cells = [Cell(kind="trace", workload=self.workload,
                          prefetcher=self.prefetcher, degree=degree,
                          config_name=self.config_name,
                          overrides=self.overrides)
                     for degree in self.degrees]
        elif self.kind == "opportunity":
            cells = [Cell(kind="opportunity", workload=self.workload,
                          config_name=self.config_name,
                          overrides=self.overrides)]
        else:  # multicore
            cells = [Cell(kind="multicore", workload=self.workload,
                          prefetcher=self.prefetcher,
                          config_name="timing" if self.config_name == "default"
                          else self.config_name,
                          overrides=self.overrides)]
        return cells, options


# -- message constructors ---------------------------------------------------


def hello(tenant: str, proto: int = PROTO_VERSION) -> dict[str, Any]:
    return {"type": HELLO, "tenant": tenant, "proto": proto}


def welcome(version: str) -> dict[str, Any]:
    return {"type": WELCOME, "proto": PROTO_VERSION, "server": version}


def submit(request_id: str, spec: JobSpec | dict[str, Any],
           deadline_s: float | None = None,
           cancel_on_disconnect: bool | None = None) -> dict[str, Any]:
    body = spec.to_dict() if isinstance(spec, JobSpec) else spec
    message: dict[str, Any] = {"type": SUBMIT, "id": request_id, "spec": body}
    if deadline_s is not None:
        message["deadline_s"] = deadline_s
    if cancel_on_disconnect is not None:
        message["cancel_on_disconnect"] = cancel_on_disconnect
    return message


def parse_submit_deadline(message: dict[str, Any]) -> float | None:
    """Validate the optional per-job ``deadline_s`` of a submit."""
    deadline_s = message.get("deadline_s")
    if deadline_s is None:
        return None
    if (not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool)
            or deadline_s <= 0):
        raise ProtocolError(
            f"submit deadline_s={deadline_s!r} must be a positive number")
    return float(deadline_s)


def parse_submit_cancel_on_disconnect(message: dict[str, Any]) -> bool | None:
    """Validate the optional ``cancel_on_disconnect`` of a submit."""
    flag = message.get("cancel_on_disconnect")
    if flag is None:
        return None
    if not isinstance(flag, bool):
        raise ProtocolError(
            f"submit cancel_on_disconnect={flag!r} must be a boolean")
    return flag


def accepted(request_id: str, job_id: str, queue_depth: int,
             tenant_depth: int) -> dict[str, Any]:
    return {"type": ACCEPTED, "id": request_id, "job": job_id,
            "queue_depth": queue_depth, "tenant_depth": tenant_depth}


def shed(request_id: str, reason: str, retry_after_s: float) -> dict[str, Any]:
    return {"type": SHED, "id": request_id, "reason": reason,
            "retry_after_s": round(retry_after_s, 4)}


def cell_result(request_id: str, job_id: str, seq: int, n_cells: int,
                label: str, status: str,
                payload: dict[str, Any] | None) -> dict[str, Any]:
    return {"type": CELL, "id": request_id, "job": job_id, "seq": seq,
            "of": n_cells, "cell": label, "status": status,
            "payload": payload}


def done(request_id: str, job_id: str, status: str, n_ok: int, n_failed: int,
         wait_s: float, service_s: float, reason: str = "") -> dict[str, Any]:
    message = {"type": DONE, "id": request_id, "job": job_id, "status": status,
               "ok": n_ok, "failed": n_failed,
               "wait_s": round(wait_s, 6), "service_s": round(service_s, 6)}
    if reason:
        message["reason"] = reason
    return message


def cancel(job_id: str, request_id: str | None = None) -> dict[str, Any]:
    """Client request: stop ``job_id`` (queued or running)."""
    message: dict[str, Any] = {"type": CANCEL, "job": job_id}
    if request_id is not None:
        message["id"] = request_id
    return message


def cancelling(job_id: str, reason: str,
               request_id: str | None = None) -> dict[str, Any]:
    """Server ack: cancellation of ``job_id`` is underway; the terminal
    verdict still arrives as the job's ``done`` frame."""
    message: dict[str, Any] = {"type": CANCELLING, "job": job_id,
                               "reason": reason}
    if request_id is not None:
        message["id"] = request_id
    return message


def job_status_request(job_id: str) -> dict[str, Any]:
    """Client request: poll one job's live progress."""
    return {"type": JOB_STATUS, "job": job_id}


def job_status(job_id: str, state: str, accesses_done: int, cells_done: int,
               n_cells: int, request_id: str | None = None) -> dict[str, Any]:
    """Server reply: where ``job_id`` is in its lifecycle right now."""
    message: dict[str, Any] = {"type": JOB_STATUS, "job": job_id,
                               "state": state,
                               "accesses_done": accesses_done,
                               "cells_done": cells_done, "of": n_cells}
    if request_id is not None:
        message["id"] = request_id
    return message


def stats(body: dict[str, Any]) -> dict[str, Any]:
    return {"type": STATS, **body}


def metrics(text: str, content_type: str) -> dict[str, Any]:
    """Prometheus text exposition, framed; ``text`` is the document."""
    return {"type": METRICS, "content_type": content_type, "text": text}


def error(message: str, request_id: str | None = None) -> dict[str, Any]:
    body: dict[str, Any] = {"type": ERROR, "error": message}
    if request_id is not None:
        body["id"] = request_id
    return body


def parse_hello(message: dict[str, Any]) -> str:
    """Validate a handshake message; returns the tenant name."""
    if message.get("type") != HELLO:
        raise ProtocolError(
            f"expected a hello handshake, got {message.get('type')!r}")
    proto = message.get("proto")
    if proto != PROTO_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client speaks {proto!r}, "
            f"server speaks {PROTO_VERSION}")
    tenant = message.get("tenant")
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ProtocolError(
            f"tenant {tenant!r} is not a valid token "
            "(lowercase alphanumerics plus '._-', max 64 chars)")
    return tenant
