"""Central registry of event, metric, and span names used at emit sites.

Every event name passed to a :class:`repro.obs.Scope` emitter
(``.debug``/``.info``/``.warning``/``.error``/``.emit``), every
counter/histogram name passed to ``Scope.counter``/``Scope.histogram``,
and every span name passed to :func:`repro.obs.trace.span` must come
from this module.  That keeps three things from drifting apart: the
emit sites themselves, the ``obs summary``/``obs spans`` renderers that
group and explain records, and the taxonomy tables in
``docs/OBSERVABILITY.md``.

The invariant is machine-enforced: rule **OBS001** of
:mod:`repro.analyze` rejects any emit site whose name is not a string
constant defined here (either the literal value or a ``names.X``
reference), and rule **OBS002** does the same for ``span(...)`` sites
(additionally requiring the context-manager form, so every started
span is closed on all paths).  Adding a new event is therefore a
two-line change — define the constant here, use it at the emit site —
and the analyzer, the summary tool, and the docs all agree by
construction.

Constants are grouped by the component scope that emits them.  The
``EVENT_NAMES`` / ``METRIC_NAMES`` / ``SPAN_NAMES`` frozensets at the
bottom are derived from the constants and are what OBS001/OBS002
validate against.
"""

from __future__ import annotations

# -- sim.engine events ------------------------------------------------------
EVT_TRIGGER = "trigger"                    # one triggering event (miss or prefetch hit)
EVT_PREFETCH = "prefetch"                  # one candidate inserted into the buffer
EVT_OVERPREDICTION = "overprediction"      # unused block evicted from the buffer
EVT_RUN_COMPLETE = "run_complete"          # one trace-driven simulation finished

# -- sim.fastpath / runner.fastpath events ----------------------------------
EVT_FASTPATH_BUILD = "fastpath_build"            # one-pass L1 filter computed
EVT_FASTPATH_FILTER_HIT = "fastpath_filter_hit"  # filter served from memo/store
EVT_FASTPATH_FILTER_REJECTED = "fastpath_filter_rejected"  # bad artifact quarantined

# -- runner.shm events -------------------------------------------------------
EVT_TRACE_SHM_PUBLISHED = "trace_shm_published"  # traces exported to shared memory
EVT_TRACE_SHM_REAPED = "trace_shm_reaped"        # stale segments of dead runs removed

# -- core.domino / core.eit events ------------------------------------------
EVT_EIT_LOOKUP = "eit_lookup"              # one- or two-address EIT lookup outcome
EVT_REPLACEMENT = "replacement"            # EIT super-entry/entry eviction

# -- runner.scheduler events ------------------------------------------------
EVT_CELL_CACHED = "cell_cached"            # cache hit served from the store
EVT_CELL_EXECUTED = "cell_executed"        # cell computed (wall/CPU attached)
EVT_CELL_PROFILE = "cell_profile"          # per-cell cProfile rows
EVT_CELL_RETRY = "cell_retry"              # failed attempt, retry scheduled
EVT_CELL_TIMEOUT = "cell_timeout"          # attempt exceeded the wall-clock budget
EVT_CELL_FAILED = "cell_failed"            # retry budget exhausted
EVT_POOL_START = "pool_start"              # worker pool spun up
EVT_POOL_REBUILD = "pool_rebuild"          # pool torn down after a hung cell
EVT_FAULT_CORRUPT_ARTIFACT = "fault_corrupt_artifact"  # chaos harness clobbered a put
EVT_RUN_SUMMARY = "run_summary"            # end-of-run scheduler accounting

# -- runner.store events ----------------------------------------------------
EVT_ARTIFACT_QUARANTINED = "artifact_quarantined"  # corrupt artifact moved aside
EVT_LOCK_BROKEN = "lock_broken"            # stale/dead-holder maintenance lock removed

# -- serve.server / serve.scheduler events ----------------------------------
EVT_SERVER_START = "server_start"          # listener bound, workers running
EVT_SERVER_STOP = "server_stop"            # drained and closed
EVT_CLIENT_CONNECT = "client_connect"      # handshake accepted
EVT_CLIENT_DISCONNECT = "client_disconnect"  # connection closed (either side)
EVT_REQUEST_MALFORMED = "request_malformed"  # undecodable/invalid client message
EVT_JOB_ADMITTED = "job_admitted"          # job queued for a tenant
EVT_JOB_SHED = "job_shed"                  # admission refused (retry-after sent)
EVT_JOB_STARTED = "job_started"            # worker slot picked the job up
EVT_JOB_COMPLETED = "job_completed"        # all cells served back
EVT_JOB_FAILED = "job_failed"              # a cell failed after retries
EVT_JOB_CANCELLED = "job_cancelled"        # terminal cancel/deadline/disconnect/shutdown
EVT_NET_FAULT = "net_fault_injected"       # chaos harness partitioned a connection

# -- cli.run events ---------------------------------------------------------
EVT_EXPERIMENT_START = "experiment_start"
EVT_EXPERIMENT_END = "experiment_end"
EVT_MANIFEST = "manifest"                  # run manifest embedded in the trace

# -- obs-internal events (written by the framework, not via a Scope) --------
EVT_TRACE_INFO = "trace_info"              # trailer: event/drop accounting
EVT_METRICS_SNAPSHOT = "metrics_snapshot"  # trailer: embedded registry snapshot
EVT_SPAN = "span"                          # one finished causal span record

# -- sim.engine counters ----------------------------------------------------
MET_TRIGGER_MISS = "trigger_miss"
MET_TRIGGER_PREFETCH_HIT = "trigger_prefetch_hit"
MET_PREFETCH_ISSUED = "prefetch_issued"
MET_OVERPREDICTION = "overprediction"

# -- sim.fastpath / runner.fastpath counters --------------------------------
MET_FASTPATH_BUILDS = "fastpath_builds"          # filters built from a trace
MET_FASTPATH_REPLAYS = "fastpath_replays"        # engine runs (all replay a filter)
MET_FASTPATH_STORE_HITS = "fastpath_store_hits"  # filters loaded from the store

# -- runner.shm counters -----------------------------------------------------
MET_TRACE_SHM_SEGMENTS = "trace_shm_segments"    # segments published per run
MET_TRACE_SHM_ATTACHES = "trace_shm_attaches"    # worker attaches served zero-copy

# -- core.domino counters ---------------------------------------------------
MET_EIT_ONE_ADDR_HIT = "eit_one_addr_hit"
MET_EIT_ONE_ADDR_MISS = "eit_one_addr_miss"
MET_EIT_TWO_ADDR_MATCH = "eit_two_addr_match"
MET_EIT_TWO_ADDR_DISCARD = "eit_two_addr_discard"

# -- core.eit counters ------------------------------------------------------
MET_SUPER_ENTRY_EVICTIONS = "super_entry_evictions"
MET_ENTRY_EVICTIONS = "entry_evictions"

# -- runner.store counters --------------------------------------------------
MET_LOCK_WAITS = "lock_waits"              # acquire() found the lock held
MET_LOCK_BREAKS = "lock_breaks"            # stale/dead-holder lock removed

# -- serve.server / serve.scheduler / serve.tenant.* metrics ----------------
MET_JOBS_ADMITTED = "jobs_admitted"
MET_JOBS_SHED = "jobs_shed"
MET_JOBS_COMPLETED = "jobs_completed"
MET_JOBS_FAILED = "jobs_failed"
MET_JOBS_CANCELLED = "jobs_cancelled"      # client cancel / disconnect / shutdown
MET_JOBS_DEADLINE_EXCEEDED = "jobs_deadline_exceeded"
MET_REQUESTS_MALFORMED = "requests_malformed"
MET_NET_FAULTS = "net_faults_injected"     # chaos partitions at the write boundary
MET_QUEUE_DEPTH = "queue_depth"            # histogram, sampled per admission decision
MET_JOB_WAIT_S = "job_wait_s"              # histogram, admission -> worker pickup
MET_JOB_SERVICE_S = "job_service_s"        # histogram, worker pickup -> served
MET_CANCEL_LATENCY_S = "cancel_latency_s"  # histogram, cancel request -> work stopped

# -- serve live stats plane (gauges synthesised per stats/metrics frame) ----
MET_QUEUE_DEPTH_NOW = "queue_depth_now"    # gauge, point-in-time queued jobs
MET_IN_FLIGHT_NOW = "in_flight_now"        # gauge, point-in-time running jobs
MET_TENANT_VTIME = "vtime"                 # gauge, per-tenant fair-queueing virtual time
MET_UPTIME_S = "uptime_s"                  # gauge, seconds since server start

# -- spans (causal timing tree; validated by OBS002) ------------------------
# Names are "<layer>.<region>"; the tree a traced request produces is
#   serve.connection > serve.job > serve.cell > runner.run > runner.cell
#   > sim.simulate / fastpath.build, and a batch run's is
#   cli.experiment > runner.run > runner.cell > ... (same tail).
SPAN_EXPERIMENT = "cli.experiment"         # one CLI experiment invocation
SPAN_RUN_CELLS = "runner.run"              # one run_cells() call
SPAN_CELL = "runner.cell"                  # one cell execution (worker root)
SPAN_SIMULATE = "sim.simulate"             # one engine run (a filter replay)
SPAN_FASTPATH_BUILD = "fastpath.build"     # one L1 filter build
SPAN_CONNECTION = "serve.connection"       # one client connection lifetime
SPAN_JOB = "serve.job"                     # one admitted job, pickup -> done
SPAN_SERVE_CELL = "serve.cell"             # one served cell inside a job
SPAN_WATCHDOG = "serve.watchdog"           # one job's lifecycle watchdog


def _collect(prefix: str) -> frozenset[str]:
    return frozenset(value for name, value in globals().items()
                     if name.startswith(prefix) and isinstance(value, str))


#: Every event name an emit site may use (validated by OBS001).
EVENT_NAMES = _collect("EVT_")

#: Every counter/histogram name an emit site may use (validated by OBS001).
METRIC_NAMES = _collect("MET_")

#: Every span name a ``with span(...)`` site may use (validated by OBS002).
SPAN_NAMES = _collect("SPAN_")
