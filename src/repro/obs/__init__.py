"""repro.obs — structured telemetry for the simulator and runner.

The observability backbone of the repo, in three pieces:

* a **metrics registry** (:mod:`repro.obs.registry`) of counters,
  gauges, and fixed-bucket histograms with mergeable percentiles;
* a **structured event trace** (:mod:`repro.obs.events` /
  :mod:`repro.obs.runtime`) — severity levels, per-component
  :class:`Scope` loggers, deterministic sampling, a bounded ring
  buffer, and JSONL serialisation;
* **phase timers and profiling** (:mod:`repro.obs.timers`) — section
  timing histograms and an opt-in per-cell cProfile hook;
* **causal span tracing** (:mod:`repro.obs.trace`) — hierarchical
  timed regions with context-local propagation, cross-process
  re-parenting, Chrome-trace export, and critical-path extraction.

Everything defaults *off*: until :func:`configure` runs, scopes are
disabled and instrumented code pays one global read per guarded event.
Telemetry observes — it never feeds back into simulation state, so
instrumented and uninstrumented runs produce identical results (the
tier-1 suite asserts this).

See ``docs/OBSERVABILITY.md`` for the event taxonomy and metric names.
"""

from .events import (DEBUG, ERROR, INFO, WARNING, EventTrace, level_name,
                     parse_level, read_jsonl, write_jsonl)
from .registry import (TIME_BUCKETS_S, Counter, Gauge, Histogram,
                       NullRegistry, Registry)
from .runtime import (ObsConfig, ObsState, Scope, absorb, base_state, capture,
                      configure, current_config, disable, scope, state)
from .summary import render_summary
from .timers import profile_call, timed
from .trace import (Span, SpanSink, chrome_trace, critical_path, current_span,
                    read_spans, render_span_tree, reparent, span,
                    validate_forest)

__all__ = [
    "DEBUG",
    "ERROR",
    "INFO",
    "WARNING",
    "TIME_BUCKETS_S",
    "Counter",
    "EventTrace",
    "Gauge",
    "Histogram",
    "NullRegistry",
    "ObsConfig",
    "ObsState",
    "Registry",
    "Scope",
    "Span",
    "SpanSink",
    "absorb",
    "base_state",
    "capture",
    "chrome_trace",
    "configure",
    "critical_path",
    "current_config",
    "current_span",
    "disable",
    "level_name",
    "parse_level",
    "profile_call",
    "read_jsonl",
    "read_spans",
    "render_span_tree",
    "render_summary",
    "reparent",
    "scope",
    "span",
    "state",
    "timed",
    "validate_forest",
    "write_jsonl",
]
