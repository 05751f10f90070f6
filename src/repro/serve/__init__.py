"""repro.serve — the evaluator as a long-running multi-tenant server.

Everything below :mod:`repro.experiments` is batch: one CLI
invocation, one grid, one manifest.  This package adds the service
tier the ROADMAP calls for — many concurrent clients submit experiment
requests, a fair scheduler multiplexes them onto the existing
fault-tolerant :mod:`repro.runner` machinery, and results stream back
incrementally over the wire:

* :mod:`repro.serve.protocol` — JSONL-framed request/response messages
  and the schema-validated :class:`JobSpec` that compiles to the same
  :class:`~repro.runner.Cell` objects the batch path executes, so a
  served result is **bit-identical** to ``domino-repro run`` output and
  warms the same artifact store;
* :mod:`repro.serve.scheduler` — fair queueing across tenants over
  served work, with admission control: bounded queues, per-tenant
  in-flight caps, and load shedding with deterministic retry-after
  hints (:mod:`repro.backoff`) when saturated;
* :mod:`repro.serve.server` — the asyncio front-end: TCP or Unix
  socket listener, per-connection protocol handling, worker slots that
  execute admitted jobs through :func:`repro.runner.run_cells`, and
  full :mod:`repro.obs` instrumentation (queue depth, admission
  decisions, per-tenant wait/service histograms);
* :mod:`repro.serve.client` — a small asyncio client used by tests,
  the CLI, and the load generator;
* :mod:`repro.serve.loadgen` — a seeded Poisson-arrival multi-client
  load generator that drives the server to saturation and emits a
  BENCH-style JSON report (throughput, p50/p99 latency, shed rate,
  Jain fairness index), so overload behaviour is itself a measured,
  regression-gated scenario (``benchmarks/bench_serve.py``).

Jobs have a full lifecycle: clients can cancel them mid-run
(``cancel`` frames), attach per-job deadlines, poll progress
(``job_status``), and opt into cancel-on-disconnect; and the server's
write boundary can be wrapped in a seeded network partition
(:mod:`repro.faults`).  See ``docs/SERVING.md`` for the wire protocol,
the job-lifecycle state machine, and the fairness and admission
semantics, and ``docs/ROBUSTNESS.md`` for the partition-chaos drills.
"""

from .protocol import PROTO_VERSION, TERMINAL_STATUSES, JobSpec
from .scheduler import Admission, AdmissionConfig, FairScheduler, Job
from .server import ExperimentServer, ServeConfig
from .client import JobResult, ServeClient, parse_address
from .loadgen import LoadGenConfig, jain_index, run_loadgen

__all__ = [
    "Admission",
    "AdmissionConfig",
    "ExperimentServer",
    "FairScheduler",
    "Job",
    "JobResult",
    "JobSpec",
    "LoadGenConfig",
    "PROTO_VERSION",
    "ServeClient",
    "ServeConfig",
    "TERMINAL_STATUSES",
    "jain_index",
    "parse_address",
    "run_loadgen",
]
