"""Telemetry state resolution and the component-facing API.

Telemetry is **off by default**: no state is installed, :func:`scope`
hands out scopes whose ``enabled`` is ``False``, and every emit/observe
call returns after one state read — instrumented hot paths cost a
truthiness check when nothing is listening.  The CLI (or a test) turns
it on with :func:`configure` and off with :func:`disable`.

State resolution is two-level:

* a **process-global base state** installed by :func:`configure` — what
  long-lived instrumentation (the CLI run loop, the serve event loop)
  records into; and
* a **context-local capture state** carried in a :mod:`contextvars`
  ``ContextVar``, installed by :class:`capture` and overriding the base
  for exactly the task, thread, or ``asyncio.to_thread`` body that
  entered it.

The context variable is what makes concurrent capture sound: each serve
slot, runner worker, and asyncio task records into its own isolated
buffer, because ``ContextVar.set`` is invisible to every other context
(PR 6's global-swap capture could interleave concurrent cells'
captures; this model cannot).  A plain ``threading.Thread`` starts with
an empty context and falls through to the base state, which is the
correct reading for "not inside any capture".

Instrumented components never hold the state directly; they hold a
:class:`Scope` (cheap, stateless, safe to create at import time) that
re-resolves the state on every call.  That makes configuration order
irrelevant and keeps worker processes correct: the pool entry point
installs the run's :class:`ObsConfig` around each cell via
:class:`capture`, which collects that cell's events, spans, and metric
snapshot for shipping back to the parent (:func:`absorb`).
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from .events import DEBUG, ERROR, INFO, WARNING, EventTrace
from .registry import Counter, Histogram, NullRegistry, Registry, _NullMetric

if TYPE_CHECKING:
    from .trace import Span, SpanSink

#: Shared null metric: what disabled scopes hand to metric users.
_NULL_REGISTRY = NullRegistry()


@dataclass(frozen=True)
class ObsConfig:
    """Picklable telemetry settings (travels to worker processes)."""

    level: int = DEBUG          # trace severity threshold
    sample_every: int = 1       # keep every Nth event per (component, event)
    ring: int = 100_000         # max in-memory events per process/cell
    profile: bool = False       # cProfile each runner cell


@dataclass
class ObsState:
    """Live telemetry for one process or capture context: config +
    registry + event ring + span sink."""

    config: ObsConfig
    registry: Registry
    trace: EventTrace
    spans: "SpanSink" = field(default_factory=lambda: _new_span_sink())


def _new_span_sink() -> "SpanSink":
    from .trace import SpanSink

    return SpanSink()


def _new_state(config: ObsConfig) -> ObsState:
    return ObsState(config=config, registry=Registry(),
                    trace=EventTrace(level=config.level,
                                     sample_every=config.sample_every,
                                     ring=config.ring),
                    spans=_new_span_sink())


#: Process-global base state (None = telemetry off).
_BASE_STATE: ObsState | None = None

#: Context-local capture state; overrides the base when set.
_CONTEXT_STATE: contextvars.ContextVar[ObsState | None] = \
    contextvars.ContextVar("repro_obs_state", default=None)


def configure(config: ObsConfig | None = None, **overrides: Any) -> ObsState:
    """Install (or replace) the process-global base telemetry state."""
    global _BASE_STATE
    cfg = config if config is not None else ObsConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    _BASE_STATE = _new_state(cfg)
    return _BASE_STATE


def disable() -> None:
    global _BASE_STATE
    _BASE_STATE = None


def state() -> ObsState | None:
    """The active state: this context's capture, else the base."""
    ctx = _CONTEXT_STATE.get()
    return ctx if ctx is not None else _BASE_STATE


def base_state() -> ObsState | None:
    """The process-global state, ignoring any active capture (what the
    CLI serialises at exit)."""
    return _BASE_STATE


def current_config() -> ObsConfig | None:
    st = state()
    return st.config if st is not None else None


class Scope:
    """Named event emitter bound to a component, not to a state.

    Every call re-resolves the active state, so scopes may be created
    at import time, before :func:`configure`, and stay correct across
    enable/disable cycles, capture contexts, and fork boundaries.
    """

    __slots__ = ("component",)

    def __init__(self, component: str) -> None:
        self.component = component

    @property
    def enabled(self) -> bool:
        return state() is not None

    def enabled_for(self, level: int) -> bool:
        st = state()
        return st is not None and level >= st.trace.level

    def child(self, name: str) -> "Scope":
        return Scope(f"{self.component}.{name}")

    def emit(self, event: str, level: int = INFO, **fields: object) -> None:
        st = state()
        if st is None:
            return
        st.trace.emit(self.component, event, level, **fields)

    def debug(self, event: str, **fields: object) -> None:
        self.emit(event, DEBUG, **fields)

    def info(self, event: str, **fields: object) -> None:
        self.emit(event, INFO, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.emit(event, WARNING, **fields)

    def error(self, event: str, **fields: object) -> None:
        """Highest severity: survives any --log-level filter, so retry
        exhaustion and cell failures are never sampled out of a trace."""
        self.emit(event, ERROR, **fields)

    def counter(self, name: str) -> Counter | _NullMetric:
        """Registry counter namespaced under this component."""
        st = state()
        if st is None:
            return _NULL_REGISTRY.counter(name)
        return st.registry.counter(f"{self.component}.{name}")

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  ) -> Histogram | _NullMetric:
        st = state()
        if st is None:
            return _NULL_REGISTRY.histogram(name)
        full = f"{self.component}.{name}"
        if buckets is None:
            return st.registry.histogram(full)
        return st.registry.histogram(full, buckets)


def scope(component: str) -> Scope:
    return Scope(component)


class capture:
    """Collect one unit of work's telemetry under a fresh, isolated state.

    ``with capture(cfg) as cap: ...`` installs a clean
    :class:`ObsState` built from ``cfg`` **in this context only** —
    concurrent tasks, threads, and serve slots keep whatever state they
    were using — runs the body, then exposes ``cap.events`` /
    ``cap.metrics`` / ``cap.spans`` / ``cap.dropped`` and restores the
    context.  Because the override travels with the
    :mod:`contextvars` context, a capture entered before
    ``asyncio.to_thread`` (or inside a pool worker) stays bound to that
    body alone; nested captures stack naturally.  With ``cfg=None`` it
    is a no-op passthrough (telemetry stays exactly as it was).
    """

    def __init__(self, config: ObsConfig | None) -> None:
        self.config = config
        self.events: list[dict[str, Any]] = []
        self.metrics: dict[str, Any] = {}
        self.spans: list[dict[str, Any]] = []
        self.dropped = 0
        self.sampled_out = 0
        self.spans_dropped = 0
        self._token: contextvars.Token[ObsState | None] | None = None
        self._state: ObsState | None = None

    def __enter__(self) -> "capture":
        if self.config is not None:
            self._state = _new_state(self.config)
            self._token = _CONTEXT_STATE.set(self._state)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.config is not None and self._token is not None:
            st = self._state
            if st is not None:
                self.events = st.trace.drain()
                self.metrics = st.registry.snapshot()
                self.spans = st.spans.drain()
                self.dropped = st.trace.dropped
                self.sampled_out = st.trace.sampled_out
                self.spans_dropped = st.spans.dropped
            _CONTEXT_STATE.reset(self._token)
            self._token = None
            self._state = None


def absorb(events: list[dict[str, Any]], metrics: dict[str, Any] | None = None,
           tag: dict[str, str] | None = None,
           spans: list[dict[str, Any]] | None = None,
           parent: "Span | None" = None) -> None:
    """Fold captured telemetry (e.g. from a worker) into this context.

    ``tag`` fields are stamped onto every absorbed event — the scheduler
    uses it to label engine events with the cell they came from, the
    serve tier with the tenant and job.  ``spans`` are grafted under
    ``parent`` (see :func:`repro.obs.trace.reparent`): shipped roots —
    and spans whose parent was inherited across a fork — join the
    absorbing span's trace, which is how a worker process's span tree
    reattaches to the cell that submitted it.
    """
    st = state()
    if st is None:
        return
    if tag:
        events = [{**record, **tag} for record in events]
    st.trace.extend(events)
    if metrics:
        st.registry.merge_snapshot(metrics)
    if spans:
        from .trace import reparent

        st.spans.extend(reparent(spans, parent))
