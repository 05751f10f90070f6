"""Parallel experiment execution engine with a content-addressed cache.

An experiment sweep decomposes into independent **cells** — one
(workload, prefetcher, config) simulation each — that the scheduler
fans out across a ``multiprocessing`` worker pool and memoises in an
on-disk artifact store keyed by a stable content hash.  Repeated and
overlapping runs are incremental: a second ``domino-repro run all`` is
near-instant, and experiments that sweep the same cells pay for them
once (fig13's trace and opportunity cells serve fig01, fig02, fig12,
fig15 and most of fig16).

The engine is fault tolerant (see docs/ROBUSTNESS.md): worker crashes,
hangs, and deaths are isolated to the cell that suffered them, retried
with exponential backoff, bounded by a per-cell timeout watchdog, and —
under a degradable policy — surfaced as partial results rather than an
aborted run.  Every finished cell is persisted the moment it completes,
so a killed run finishes when the same command runs again on the same
cache, bit-identically, and every failure path is exercised
deterministically by the fault injection harness in :mod:`repro.faults`.

Layering: ``runner`` sits *below* :mod:`repro.experiments` — it knows
how to execute a cell from first principles (workload suite, simulator,
registry) and never imports the experiment drivers, so drivers can
import it freely.

See ``docs/RUNNER.md`` for the cell model and cache-invalidation rules.
"""

from .cells import CODE_VERSION, Cell, cell_config, cell_key
from .execute import CellTelemetry
from .manifest import CELL_STATUSES
from .manifest import SCHEMA_VERSION as MANIFEST_SCHEMA_VERSION
from .manifest import CellRecord, RunManifest
from .scheduler import ExecutionPolicy, get_policy, run_cells, set_policy
from .store import ResultStore, StoreLock, StoreStats

__all__ = [
    "CELL_STATUSES",
    "CODE_VERSION",
    "MANIFEST_SCHEMA_VERSION",
    "Cell",
    "CellRecord",
    "CellTelemetry",
    "ExecutionPolicy",
    "ResultStore",
    "RunManifest",
    "StoreLock",
    "StoreStats",
    "cell_config",
    "cell_key",
    "get_policy",
    "run_cells",
    "set_policy",
]
