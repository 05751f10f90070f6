"""Causal span tracing: hierarchical timing with context-local capture.

A **span** is one timed region of work — a served job, a scheduled
cell, an engine run — with a causal parent, so a whole request
decomposes into a tree: serve connection → job → cell → simulate.
Spans answer the question flat events cannot: *which* part of *whose*
request the time went to.

Design points, in the order they matter:

* **Context-local, not global.**  The active span lives in a
  :mod:`contextvars` ``ContextVar``, so concurrent asyncio tasks,
  ``asyncio.to_thread`` bodies, and capture contexts each see their own
  span stack.  Two serve slots running cells at the same time can never
  cross-wire their span trees (the PR 6 caveat this module retires).

* **Closed means recorded.**  A span only reaches the sink when its
  ``with`` block exits, carrying both endpoints from the same monotonic
  clock — durations are never negative and never invented.  The
  context-manager form is the only form; rule OBS002 of
  :mod:`repro.analyze` rejects bare ``span(...)`` calls, which is what
  guarantees "started in a function ⇒ closed on all paths".

* **Registered names only.**  Span names come from
  :data:`repro.obs.names.SPAN_NAMES` — same contract as event and
  metric names, same analyzer enforcement, same docs taxonomy.

* **Cross-process re-parenting.**  Worker processes record spans under
  their own ids; :func:`reparent` grafts a shipped forest under the
  submitting span at absorption time (ids are prefixed with the
  originating pid, so grafting never collides).

* **Results stay bit-identical.**  Spans observe; they never feed back.
  The instrumented==uninstrumented regression gate covers spans-on runs
  (``benchmarks/bench_obs.py``, tests/obs).

On-disk form: span records ride the same JSONL trace as events, as
``component="obs.span", event="span"`` records (see
:func:`span_to_record`).  :func:`chrome_trace` converts a parsed forest
to the Chrome ``traceEvents`` JSON that chrome://tracing and Perfetto
load directly; :func:`critical_path` extracts the slowest root→leaf
chain per trace.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from ..errors import ObsError
from . import names as obs_names
from . import runtime

#: Span/trace ids are ``<pid-hex>-<counter-hex>``: unique within a
#: process by the counter, across cooperating processes by the pid.
#: (Telemetry ids never feed results, so pid-dependence is fine —
#: and DET001 does not govern obs/.)
_COUNTER = itertools.count(1)
_COUNTER_LOCK = threading.Lock()

#: Finished spans a sink buffers before it drops the oldest.
SPAN_RING = 100_000


def _new_id() -> str:
    with _COUNTER_LOCK:
        n = next(_COUNTER)
    return f"{os.getpid():x}-{n:x}"


@dataclass
class Span:
    """One open (then closed) timed region with a causal parent.

    ``start_s``/``end_s`` are :func:`time.monotonic` readings — on
    Linux a system-wide clock, so spans recorded in forked worker
    processes order correctly against their parents.
    """

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    start_s: float
    end_s: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def annotate(self, **attrs: Any) -> None:
        """Attach structured attributes after creation (e.g. a tenant
        name learned mid-connection)."""
        self.attrs.update(attrs)


#: The innermost open span of the current context (task/thread).
_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


def current_span() -> Span | None:
    """The innermost open span of this context, or None."""
    return _CURRENT.get()


class SpanSink:
    """Bounded ring of finished span records with drop accounting.

    ``extend`` (the absorption path) may be called from several threads
    of one process — serve slots absorb concurrently — so it locks;
    ``add`` runs on the recording context's own sink and stays
    lock-free.
    """

    def __init__(self, ring: int = SPAN_RING) -> None:
        if ring < 1:
            raise ValueError("ring must be >= 1")
        self.ring = ring
        self._spans: deque[dict[str, Any]] = deque(maxlen=ring)
        self._lock = threading.Lock()
        self.dropped = 0

    def add(self, record: dict[str, Any]) -> None:
        if len(self._spans) == self.ring:
            self.dropped += 1
        self._spans.append(record)

    def extend(self, records: list[dict[str, Any]]) -> None:
        with self._lock:
            for record in records:
                if len(self._spans) == self.ring:
                    self.dropped += 1
                self._spans.append(record)

    def spans(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[dict[str, Any]]:
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
            return out

    def __len__(self) -> int:
        return len(self._spans)


def span_to_record(span: Span) -> dict[str, Any]:
    """The JSONL form of one finished span (rides the event trace).

    Deliberately carries no ``level``: spans are structural timing
    records, collected whole or not at all — the ``--log-level`` filter
    that thins leveled events does not apply to them.
    """
    record: dict[str, Any] = {
        "component": "obs.span",
        "event": obs_names.EVT_SPAN, "name": span.name,
        "span": span.span_id, "trace": span.trace_id,
        "parent": span.parent_id, "start_s": round(span.start_s, 9),
        "end_s": round(span.end_s if span.end_s is not None else span.start_s, 9),
        "status": span.status,
    }
    if span.attrs:
        record["attrs"] = span.attrs
    return record


@contextmanager
def span(name: str, parent: Span | None = None,
         **attrs: Any) -> Iterator[Span | None]:
    """Open one span under the current (or an explicit) parent.

    No-op when telemetry is off: yields ``None`` after one state read.
    ``parent`` overrides the context parent — the serve tier uses it to
    hang a job span off the connection span that admitted it, which
    lives in a different asyncio task.

    The span is recorded into the **active state's** span sink on exit
    (capture contexts therefore collect their own spans), with
    ``status="error"`` when the body raised.
    """
    st = runtime.state()
    if st is None:
        yield None
        return
    if name not in obs_names.SPAN_NAMES:
        raise ObsError(f"span name {name!r} is not registered in "
                       "repro.obs.names (SPAN_* constants)")
    if parent is None:
        parent = _CURRENT.get()
    sp = Span(name=name, span_id=_new_id(),
              trace_id=parent.trace_id if parent is not None else _new_id(),
              parent_id=parent.span_id if parent is not None else None,
              start_s=time.monotonic(), attrs=dict(attrs))
    token = _CURRENT.set(sp)
    try:
        yield sp
    except BaseException:
        sp.status = "error"
        raise
    finally:
        sp.end_s = time.monotonic()
        _CURRENT.reset(token)
        # Record into whatever state is active *now* — a capture opened
        # inside the span body has been unwound by its own __exit__.
        active = runtime.state()
        if active is not None:
            active.spans.add(span_to_record(sp))


def reparent(records: list[dict[str, Any]],
             parent: Span | None) -> list[dict[str, Any]]:
    """Graft a shipped span forest under ``parent``.

    Every record joins the parent's trace; records whose parent id is
    not itself in the shipped set (worker-side roots, or spans whose
    parent was inherited across a fork) are re-pointed at the parent
    span.  With ``parent=None`` the records pass through untouched.
    """
    if parent is None or not records:
        return records
    shipped = {r.get("span") for r in records}
    out = []
    for record in records:
        record = dict(record)
        record["trace"] = parent.trace_id
        if record.get("parent") not in shipped:
            record["parent"] = parent.span_id
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# parsed-trace utilities (obs spans, CI gates, tests)


def read_spans(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Extract span records from a parsed JSONL trace."""
    return [e for e in events if e.get("event") == obs_names.EVT_SPAN
            and e.get("component") == "obs.span"]


def validate_forest(records: list[dict[str, Any]]) -> list[str]:
    """Well-formedness problems of a span forest (empty list = sound).

    Checks: unique span ids, resolvable parents (every non-root parent
    id present in the forest), parent/child trace agreement, exactly
    one root per trace id, and non-negative durations.
    """
    problems: list[str] = []
    by_id: dict[str, dict[str, Any]] = {}
    for record in records:
        span_id = record.get("span")
        if not isinstance(span_id, str) or not span_id:
            problems.append(f"span record without an id: {record.get('name')}")
            continue
        if span_id in by_id:
            problems.append(f"duplicate span id {span_id}")
        by_id[span_id] = record
    roots_per_trace: dict[str, int] = {}
    for span_id, record in by_id.items():
        parent = record.get("parent")
        trace_id = record.get("trace")
        if parent is None:
            roots_per_trace[trace_id] = roots_per_trace.get(trace_id, 0) + 1
        elif parent not in by_id:
            problems.append(
                f"orphan span {record.get('name')}({span_id}): "
                f"parent {parent} not in forest")
        elif by_id[parent].get("trace") != trace_id:
            problems.append(
                f"span {record.get('name')}({span_id}) crosses traces: "
                f"{trace_id} vs parent's {by_id[parent].get('trace')}")
        start = float(record.get("start_s", 0.0))
        end = float(record.get("end_s", start))
        if end < start:
            problems.append(
                f"span {record.get('name')}({span_id}) has negative "
                f"duration {end - start:.9f}s")
    for trace_id, n_roots in sorted(roots_per_trace.items()):
        if n_roots != 1:
            problems.append(f"trace {trace_id} has {n_roots} roots "
                            "(expected exactly one)")
    for trace_id in {r.get("trace") for r in by_id.values()}:
        if trace_id not in roots_per_trace:
            problems.append(f"trace {trace_id} has no root span")
    return problems


def _children_index(records: list[dict[str, Any]],
                    ) -> dict[str | None, list[dict[str, Any]]]:
    children: dict[str | None, list[dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record.get("parent"), []).append(record)
    for bucket in children.values():
        bucket.sort(key=lambda r: float(r.get("start_s", 0.0)))
    return children


def _duration(record: dict[str, Any]) -> float:
    return (float(record.get("end_s", 0.0))
            - float(record.get("start_s", 0.0)))


def critical_path(records: list[dict[str, Any]],
                  ) -> list[list[dict[str, Any]]]:
    """The slowest root→leaf chain of every trace, slowest trace first.

    Descends from each root through its longest-duration child; the
    result chains are the spans an optimisation effort should look at
    first.  Each returned chain is root-first.
    """
    by_id = {r.get("span"): r for r in records}
    children = _children_index(records)
    roots = [r for r in records
             if r.get("parent") is None or r.get("parent") not in by_id]
    chains: list[list[dict[str, Any]]] = []
    for root in roots:
        chain = [root]
        node = root
        while True:
            kids = children.get(node.get("span"), [])
            if not kids:
                break
            node = max(kids, key=_duration)
            chain.append(node)
        chains.append(chain)
    chains.sort(key=lambda c: -_duration(c[0]))
    return chains


def chrome_trace(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Convert a span forest to Chrome ``traceEvents`` JSON.

    Loadable as-is by chrome://tracing and https://ui.perfetto.dev —
    each trace id becomes one "thread" row, spans become complete
    (``ph="X"``) events with microsecond timestamps, and span
    attributes ride in ``args``.
    """
    trace_rows: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for record in sorted(records, key=lambda r: float(r.get("start_s", 0.0))):
        trace_id = str(record.get("trace"))
        tid = trace_rows.setdefault(trace_id, len(trace_rows) + 1)
        args = dict(record.get("attrs") or {})
        args["span"] = record.get("span")
        args["trace"] = trace_id
        if record.get("status") != "ok":
            args["status"] = record.get("status")
        events.append({
            "name": record.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": round(float(record.get("start_s", 0.0)) * 1e6, 3),
            "dur": round(max(_duration(record), 0.0) * 1e6, 3),
            "args": args,
        })
    thread_names = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": f"trace {trace_id}"}}
        for trace_id, tid in trace_rows.items()]
    return {"traceEvents": thread_names + events,
            "displayTimeUnit": "ms"}


def render_span_tree(records: list[dict[str, Any]], top: int = 20) -> str:
    """A plain-text span forest: indentation is causality, slowest
    traces first; ``top`` bounds the rendered traces."""
    if not records:
        return "no spans in trace"
    children = _children_index(records)
    by_id = {r.get("span"): r for r in records}
    roots = sorted((r for r in records
                    if r.get("parent") is None or r.get("parent") not in by_id),
                   key=_duration, reverse=True)
    lines: list[str] = [f"{len(records)} spans, {len(roots)} trace(s)"]

    def _render(record: dict[str, Any], depth: int) -> None:
        attrs = record.get("attrs") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        flag = "" if record.get("status") == "ok" else f" [{record.get('status')}]"
        lines.append(f"{'  ' * depth}{record.get('name')}  "
                     f"{_duration(record) * 1e3:9.3f} ms{flag}"
                     + (f"  {attr_text}" if attr_text else ""))
        for child in children.get(record.get("span"), []):
            _render(child, depth + 1)

    for root in roots[:top]:
        _render(root, 0)
    if len(roots) > top:
        lines.append(f"... {len(roots) - top} more trace(s)")
    return "\n".join(lines)
