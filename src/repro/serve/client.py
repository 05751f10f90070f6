"""Asyncio client for the experiment server.

A deliberately thin wrapper over the JSONL protocol, shared by the
load generator, the serve benchmark and smoke script, and the test
suite.  One client drives one connection and one job at a
time, which keeps the reply stream trivially ordered: ``submit`` is
answered by ``accepted`` or ``shed``, an accepted job streams ``cell``
frames and finishes with ``done``.

The raw ``send``/``recv`` frame methods are public on purpose — the
chaos tests use them to misbehave (malformed frames, mid-stream
disconnects, glacial reads) in ways the high-level helpers would never
produce.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from ..errors import ProtocolError
from . import protocol


@dataclass
class CellResult:
    """One streamed cell frame of an accepted job."""

    seq: int
    label: str
    status: str
    payload: dict[str, Any] | None


@dataclass
class JobResult:
    """Everything one submit produced, shed or served.

    ``status`` is ``ok`` / ``failed`` for completed jobs, ``shed`` for
    admission refusals (with ``reason`` and ``retry_after_s`` set), and
    ``error`` when the server answered with an error frame.
    """

    request_id: str
    accepted: bool
    status: str = ""
    job_id: str = ""
    reason: str = ""
    retry_after_s: float = 0.0
    wait_s: float = 0.0
    service_s: float = 0.0
    cells: list[CellResult] = field(default_factory=list)

    @property
    def payloads(self) -> list[dict[str, Any] | None]:
        """Cell payloads in stream order (None for failed cells)."""
        return [cell.payload for cell in self.cells]


def parse_address(address: str) -> tuple[str | None, str, int]:
    """``unix:<path>``, ``host:port``, or ``[v6]:port`` -> (unix_path, host, port).

    IPv6 literals must be bracketed (``[::1]:9000``) — a bare ``::1:9000``
    is ambiguous, since every colon is a candidate separator.  The port
    is required and must be a decimal number in ``1..65535``.
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ProtocolError("empty unix socket path")
        return path, "", 0
    if address.startswith("["):
        end = address.find("]")
        if end < 0:
            raise ProtocolError(
                f"unterminated IPv6 literal in address {address!r}")
        host = address[1:end]
        rest = address[end + 1:]
        if not host or not rest.startswith(":"):
            raise ProtocolError(
                f"address {address!r} is not of the form [host]:port")
        port_text = rest[1:]
    else:
        host, sep, port_text = address.rpartition(":")
        if not sep or not host:
            raise ProtocolError(
                f"address {address!r} is neither unix:<path> nor host:port")
        if ":" in host:
            raise ProtocolError(
                f"IPv6 literal in address {address!r} must be bracketed, "
                f"e.g. [::1]:9000")
    if not port_text.isdigit():
        raise ProtocolError(f"bad port in address {address!r}")
    port = int(port_text)
    if not 0 < port < 65536:
        raise ProtocolError(f"port out of range in address {address!r}")
    return None, host, port


class ServeClient:
    """One authenticated connection to an :class:`ExperimentServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, tenant: str) -> None:
        self.reader = reader
        self.writer = writer
        self.tenant = tenant
        self.server_version = ""

    @classmethod
    async def connect(cls, address: str, tenant: str) -> "ServeClient":
        """Dial, handshake, and return a ready client."""
        path, host, port = parse_address(address)
        limit = protocol.MAX_LINE_BYTES + 2
        if path is not None:
            reader, writer = await asyncio.open_unix_connection(path,
                                                                limit=limit)
        else:
            reader, writer = await asyncio.open_connection(host, port,
                                                           limit=limit)
        client = cls(reader, writer, tenant)
        await client.send(protocol.hello(tenant))
        reply = await client.recv()
        if reply["type"] != protocol.WELCOME:
            await client.close(polite=False)
            raise ProtocolError(
                f"handshake refused: {reply.get('error', reply['type'])}")
        client.server_version = str(reply.get("server", ""))
        return client

    # -- frames ---------------------------------------------------------
    async def send(self, message: dict[str, Any]) -> None:
        self.writer.write(protocol.encode_message(message))
        await self.writer.drain()

    async def send_raw(self, frame: bytes) -> None:
        """Write arbitrary bytes — the chaos clients' backdoor."""
        self.writer.write(frame)
        await self.writer.drain()

    async def recv(self) -> dict[str, Any]:
        frame = await self.reader.readline()
        if not frame:
            raise ProtocolError("server closed the connection")
        return protocol.decode_line(frame)

    # -- high-level calls -----------------------------------------------
    async def submit(self, spec: protocol.JobSpec | dict[str, Any],
                     request_id: str, deadline_s: float | None = None,
                     cancel_on_disconnect: bool | None = None) -> None:
        """Send one submit frame (pair with :meth:`collect`)."""
        await self.send(protocol.submit(
            request_id, spec, deadline_s=deadline_s,
            cancel_on_disconnect=cancel_on_disconnect))

    async def run_job(self, spec: protocol.JobSpec | dict[str, Any],
                      request_id: str) -> JobResult:
        """Submit one job and collect its full reply stream."""
        await self.submit(spec, request_id)
        return await self.collect(request_id)

    async def collect(self, request_id: str) -> JobResult:
        """Drain the reply stream of an already-sent submit."""
        reply = await self.recv()
        kind = reply["type"]
        if kind == protocol.SHED:
            return JobResult(request_id=request_id, accepted=False,
                             status="shed", reason=str(reply.get("reason", "")),
                             retry_after_s=float(reply.get("retry_after_s", 0.0)))
        if kind == protocol.ERROR:
            return JobResult(request_id=request_id, accepted=False,
                             status="error", reason=str(reply.get("error", "")))
        if kind != protocol.ACCEPTED:
            raise ProtocolError(f"unexpected submit reply {kind!r}")
        return await self.stream(request_id,
                                 job_id=str(reply.get("job", "")))

    async def stream(self, request_id: str, job_id: str = "") -> JobResult:
        """Drain cell/done frames of a job already known to be accepted."""
        result = JobResult(request_id=request_id, accepted=True,
                           job_id=job_id)
        while True:
            frame = await self.recv()
            kind = frame["type"]
            if kind == protocol.CELL:
                result.cells.append(CellResult(
                    seq=int(frame.get("seq", 0)),
                    label=str(frame.get("cell", "")),
                    status=str(frame.get("status", "")),
                    payload=frame.get("payload")))
            elif kind == protocol.DONE:
                result.status = str(frame.get("status", ""))
                result.reason = str(frame.get("reason", ""))
                result.wait_s = float(frame.get("wait_s", 0.0))
                result.service_s = float(frame.get("service_s", 0.0))
                return result
            elif kind == protocol.CANCELLING:
                # Ack of a cancel sent mid-stream; the terminal state
                # still arrives as a done frame.
                result.reason = str(frame.get("reason", ""))
            elif kind == protocol.JOB_STATUS:
                # Interleaved poll reply (a cancel-minded caller may
                # check progress mid-stream); not a terminal frame.
                continue
            elif kind == protocol.ERROR:
                result.status = "error"
                result.reason = str(frame.get("error", ""))
                return result
            else:
                raise ProtocolError(f"unexpected stream frame {kind!r}")

    async def cancel(self, job_id: str,
                     request_id: str | None = None) -> None:
        """Request cancellation of an in-flight job (fire-and-forget).

        The ``cancelling`` ack and the terminal ``done`` frame arrive
        on the job's reply stream; :meth:`stream` tolerates both.
        """
        await self.send(protocol.cancel(job_id, request_id))

    async def job_status(self, job_id: str) -> dict[str, Any]:
        """Poll one job's lifecycle state and progress.

        Only valid when no job stream is being drained on this
        connection — poll from a second connection (same tenant)
        while a submit streams on the first.
        """
        await self.send(protocol.job_status_request(job_id))
        reply = await self.recv()
        if reply["type"] == protocol.ERROR:
            raise ProtocolError(
                f"job_status refused: {reply.get('error', '')}")
        if reply["type"] != protocol.JOB_STATUS:
            raise ProtocolError(
                f"unexpected job_status reply {reply['type']!r}")
        return reply

    async def status(self) -> dict[str, Any]:
        """The server's scheduler/stats snapshot."""
        await self.send({"type": protocol.STATUS})
        reply = await self.recv()
        if reply["type"] != protocol.STATS:
            raise ProtocolError(f"unexpected status reply {reply['type']!r}")
        return reply

    async def metrics(self) -> dict[str, Any]:
        """The server's Prometheus exposition (``text`` + ``content_type``)."""
        await self.send({"type": protocol.METRICS})
        reply = await self.recv()
        if reply["type"] != protocol.METRICS:
            raise ProtocolError(f"unexpected metrics reply {reply['type']!r}")
        return reply

    async def shutdown(self) -> None:
        """Ask the server to drain and exit (admin clients only)."""
        await self.send({"type": protocol.SHUTDOWN})
        reply = await self.recv()
        if reply["type"] != protocol.STOPPING:
            raise ProtocolError(
                f"shutdown refused: {reply.get('error', reply['type'])}")

    async def close(self, polite: bool = True) -> None:
        """Say goodbye (unless impolite) and tear the connection down."""
        import contextlib

        with contextlib.suppress(ConnectionError, OSError, ProtocolError):
            if polite:
                await self.send({"type": protocol.BYE})
            self.writer.close()
            await self.writer.wait_closed()

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
