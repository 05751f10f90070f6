"""Zero-copy trace handoff to pool workers via shared memory.

Without this module every pool worker regenerates each workload trace
from its seed on first use (the generated arrays cannot ride the
work-item pickle without copying megabytes per cell).  With it, the
scheduler generates each needed trace **once**, copies its four column
arrays into one ``multiprocessing.shared_memory`` segment, and passes
workers a tiny picklable *spec* (segment name + length per trace).
Workers attach the segment and wrap the mapped pages in read-only numpy
views — a :class:`~repro.sim.trace.MemoryTrace` whose storage is the
parent's pages, shared by every worker at zero marginal cost.

Segment layout (no header; the spec carries the length ``n``)::

    [0,      8n)   pcs     int64
    [8n,    16n)   blocks  int64
    [16n,   20n)   works   int32
    [20n,   21n)   deps    int8

Lifetime is owned by the scheduler: segments are created before the
pool spins up and unlinked in a ``finally`` when the run ends, so they
survive mid-run pool rebuilds (timeout watchdog) but never a completed
or crashed *parent*.  Two guards keep /dev/shm clean anyway:

* segment names embed the creating pid (``dmtr<pid>x<seq>``), and
  :func:`reap_stale_segments` — called before each publish — unlinks
  segments whose creator is provably dead (a SIGKILLed parent);
* workers attach **untracked** where the stdlib allows it
  (``track=False``, Python 3.13+).  Before 3.13 the attach-side
  ``resource_tracker.register`` is left alone on purpose: fork-family
  workers share the parent's tracker, so their register is an
  idempotent no-op and the owner's ``unlink`` unregisters exactly once
  (an explicit unregister here would poison the shared cache — the
  bpo-38119 family of problems).  On spawn platforms an exiting
  worker's tracker may unlink a live segment early; attaches then fail
  and callers regenerate, degrading throughput, never correctness.

Where the platform refuses shared memory, :func:`publish_traces`
returns ``None`` and workers fall back to per-process regeneration,
which stays bit-identical (the spec is an optimisation channel, never a
correctness dependency).
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any

import numpy as np

from .. import obs
from ..obs import names as obs_names
from ..sim.trace import MemoryTrace

#: Prefix of every segment this module creates (pid + sequence follow).
SEGMENT_PREFIX = "dmtr"

#: Shared-memory telemetry scope (off until obs.configure()).
_OBS = obs.scope("runner.shm")

_COUNTER = itertools.count()

#: Worker-side attach caches: one mapping per process, keyed by segment
#: name.  Holding the SharedMemory objects keeps the mappings alive for
#: the whole worker lifetime (the parent owns unlinking).
_ATTACHED_TRACES: dict[str, MemoryTrace] = {}
_ATTACHED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def trace_share_key(workload: str, n_accesses: int, seed: int) -> str:
    """Spec key identifying one generated trace (mirrors the suite memo)."""
    return f"{workload}|{n_accesses}|{seed}"


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment, untracked where supported."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter (see module doc)
        return shared_memory.SharedMemory(name=name)


def _release_attachments() -> None:
    """Drop cached traces, then close their segments (atexit).

    Order matters: the numpy views must die before ``close()`` or the
    exported memoryview makes it raise ``BufferError``.  Anything still
    referencing a shared trace keeps its pages mapped regardless — the
    suppress below only quiets the bookkeeping, never unmaps live data.
    """
    _ATTACHED_TRACES.clear()
    for seg in _ATTACHED_SEGMENTS.values():
        with contextlib.suppress(BufferError, OSError):
            seg.close()
    _ATTACHED_SEGMENTS.clear()


atexit.register(_release_attachments)


class TraceShare:
    """A set of published trace segments plus their picklable spec.

    Create with :func:`publish_traces`; the owner must call
    :meth:`close` (idempotent) when the consumers are gone.
    """

    def __init__(self) -> None:
        self.spec: dict[str, dict[str, Any]] = {}
        self._segments: list[shared_memory.SharedMemory] = []

    def __len__(self) -> int:
        return len(self._segments)

    def add(self, key: str, trace: MemoryTrace) -> None:
        n = len(trace)
        name = f"{SEGMENT_PREFIX}{os.getpid()}x{next(_COUNTER)}"
        seg = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(21 * n, 1))
        buf = seg.buf
        np.frombuffer(buf, np.int64, n, 0)[:] = trace.pcs
        np.frombuffer(buf, np.int64, n, 8 * n)[:] = trace.blocks
        np.frombuffer(buf, np.int32, n, 16 * n)[:] = trace.works
        np.frombuffer(buf, np.int8, n, 20 * n)[:] = trace.deps
        self._segments.append(seg)
        self.spec[key] = {"segment": name, "n": n, "trace_name": trace.name}

    def close(self) -> None:
        """Unlink every segment (the owner's end-of-run duty)."""
        for seg in self._segments:
            with contextlib.suppress(OSError):
                seg.close()
            with contextlib.suppress(OSError, FileNotFoundError):
                seg.unlink()
        self._segments = []
        self.spec = {}


def publish_traces(traces: dict[str, MemoryTrace]) -> TraceShare | None:
    """Export ``traces`` (spec key -> trace) into shared memory.

    Returns ``None`` when there is nothing to share or the platform
    refuses (no /dev/shm, permission trouble) — callers fall back to
    per-worker regeneration either way.
    """
    if not traces:
        return None
    share = TraceShare()
    try:
        for key, trace in traces.items():
            share.add(key, trace)
    except OSError:
        share.close()
        return None
    if _OBS.enabled:
        _OBS.counter(obs_names.MET_TRACE_SHM_SEGMENTS).inc(len(share))
        _OBS.info(obs_names.EVT_TRACE_SHM_PUBLISHED,
                  segments=len(share), traces=sorted(traces))
    return share


def attach_trace(entry: dict[str, Any]) -> MemoryTrace | None:
    """Materialise a worker-side trace from one spec entry.

    Returns ``None`` when the segment cannot be attached (already
    unlinked, malformed entry) so the caller regenerates instead.  The
    returned trace's arrays are read-only views of the shared pages;
    repeat calls for the same segment reuse one cached attachment.
    """
    try:
        name = str(entry["segment"])
        n = int(entry["n"])
        trace_name = str(entry["trace_name"])
    except (KeyError, TypeError, ValueError):
        return None
    cached = _ATTACHED_TRACES.get(name)
    if cached is not None:
        return cached
    try:
        seg = _attach_segment(name)
    except (OSError, ValueError):
        return None
    if seg.size < 21 * n:
        with contextlib.suppress(OSError):
            seg.close()
        return None
    buf = seg.buf
    columns = (np.frombuffer(buf, np.int64, n, 0),
               np.frombuffer(buf, np.int64, n, 8 * n),
               np.frombuffer(buf, np.int8, n, 20 * n),
               np.frombuffer(buf, np.int32, n, 16 * n))
    for col in columns:
        col.setflags(write=False)
    pcs, blocks, deps, works = columns
    trace = MemoryTrace(pcs=pcs, blocks=blocks, deps=deps, works=works,
                        name=trace_name)
    _ATTACHED_SEGMENTS[name] = seg
    _ATTACHED_TRACES[name] = trace
    if _OBS.enabled:
        _OBS.counter(obs_names.MET_TRACE_SHM_ATTACHES).inc()
    return trace


def active_segments() -> list[str]:
    """Names of this module's segments currently present in /dev/shm.

    The leak check used by benchmarks and the chaos harness: after a
    run's ``TraceShare.close()`` this must be empty.
    """
    base = Path("/dev/shm")
    if not base.is_dir():  # non-Linux: no portable way to enumerate
        return []
    try:
        return sorted(p.name for p in base.iterdir()
                      if p.name.startswith(SEGMENT_PREFIX))
    except OSError:
        return []


def _creator_pid(name: str) -> int | None:
    body = name[len(SEGMENT_PREFIX):]
    pid_text = body.split("x", 1)[0]
    try:
        return int(pid_text)
    except ValueError:
        return None


def reap_stale_segments() -> int:
    """Unlink segments whose creating process is dead.  Returns count.

    A parent killed with SIGKILL never reaches ``TraceShare.close()``;
    the pid baked into each segment name lets the next run sweep the
    orphans instead of leaking /dev/shm until reboot.
    """
    reaped = []
    for name in active_segments():
        pid = _creator_pid(name)
        if pid is None or pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue                      # creator still alive
        except ProcessLookupError:
            pass                          # provably dead: reap
        except (PermissionError, OSError):
            continue                      # alive under another uid
        try:
            seg = _attach_segment(name)
            seg.close()
            seg.unlink()
            reaped.append(name)
        except (OSError, ValueError):
            continue
    if reaped:
        _OBS.warning(obs_names.EVT_TRACE_SHM_REAPED,
                     segments=len(reaped), names=reaped)
    return len(reaped)
