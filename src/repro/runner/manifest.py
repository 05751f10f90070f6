"""Per-run manifests: what ran, what was cached, and how it ended.

A :class:`RunManifest` is produced by every
:func:`repro.runner.scheduler.run_cells` call.  Experiments attach it
to their :class:`~repro.experiments.common.ExperimentResult` so the CLI
can print the one-line cache/parallelism summary after each table, and
tests use it to assert hit/miss and failure accounting.

Serialised manifests carry a ``version`` field (``SCHEMA_VERSION``);
:meth:`RunManifest.from_dict` refuses unknown versions with a clear
error so tooling reading old or future manifests fails loudly instead
of with a ``KeyError`` three stack frames later.  Schema v2 added
per-cell CPU time (``cpu_s``) next to wall time, which is what makes
the worker-utilization accounting in ``obs summary`` possible.  Schema
v3 added the fault-tolerance fields: per-cell ``status`` / ``attempts``
/ ``error``, so a degraded run's manifest records exactly which cells
failed, timed out, or needed retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import RunnerError

#: Bump on any backwards-incompatible change to :meth:`RunManifest.to_dict`.
SCHEMA_VERSION = 3

#: Per-cell outcome statuses (see docs/ROBUSTNESS.md).
CELL_STATUSES = ("hit", "ok", "retried", "failed", "timeout")


@dataclass
class CellRecord:
    """Outcome of one cell within a run.

    ``status`` is one of :data:`CELL_STATUSES`: ``hit`` (served from the
    artifact cache), ``ok`` (executed first try), ``retried`` (executed
    after >= 1 failed attempts), ``failed`` / ``timeout`` (retry budget
    exhausted; ``error`` holds the last failure, the payload slot holds
    ``None``).
    """

    key: str
    label: str
    cached: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    status: str = "ok"
    attempts: int = 1
    error: str = ""

    def __post_init__(self) -> None:
        if self.status not in CELL_STATUSES:
            raise RunnerError(f"unknown cell status {self.status!r}; "
                              f"expected one of {CELL_STATUSES}")

    @property
    def ok(self) -> bool:
        return self.status in ("hit", "ok", "retried")


@dataclass
class RunManifest:
    """Accounting for one ``run_cells`` invocation."""

    jobs: int = 1
    cache_enabled: bool = True
    #: "serial", "pool", or "serial-fallback" (pool unavailable).
    mode: str = "serial"
    cells: list[CellRecord] = field(default_factory=list)
    wall_s: float = 0.0

    # -- recording ------------------------------------------------------
    def record_hit(self, key: str, label: str) -> None:
        self.cells.append(CellRecord(key=key, label=label, cached=True,
                                     status="hit", attempts=0))

    def record_executed(self, key: str, label: str, wall_s: float,
                        cpu_s: float = 0.0, status: str = "ok",
                        attempts: int = 1) -> None:
        self.cells.append(CellRecord(key=key, label=label, cached=False,
                                     wall_s=wall_s, cpu_s=cpu_s,
                                     status=status, attempts=attempts))

    def record_failed(self, key: str, label: str, status: str,
                      attempts: int, error: str,
                      wall_s: float = 0.0) -> None:
        """A cell that exhausted its retry budget (no payload)."""
        self.cells.append(CellRecord(key=key, label=label, cached=False,
                                     wall_s=wall_s, status=status,
                                     attempts=attempts, error=error))

    # -- accounting -----------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def misses(self) -> int:
        return self.n_cells - self.hits

    @property
    def failed(self) -> int:
        """Cells with no payload after all retries (failed or timeout)."""
        return sum(1 for c in self.cells if not c.ok)

    @property
    def retried(self) -> int:
        """Cells that succeeded but needed at least one retry."""
        return sum(1 for c in self.cells if c.status == "retried")

    @property
    def complete(self) -> bool:
        """True when every cell produced a payload."""
        return self.failed == 0

    @property
    def executed_s(self) -> float:
        """Summed per-cell execution time (CPU-side work, all workers)."""
        return sum(c.wall_s for c in self.cells if not c.cached)

    @property
    def executed_cpu_s(self) -> float:
        """Summed per-cell CPU time across all workers."""
        return sum(c.cpu_s for c in self.cells if not c.cached)

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool's wall-clock capacity spent
        computing cells: ``executed_s / (wall_s * jobs)``, 0.0 when the
        run did no timed work."""
        capacity = self.wall_s * self.jobs
        return min(1.0, self.executed_s / capacity) if capacity > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (for logs and tooling)."""
        return {
            "version": SCHEMA_VERSION,
            "jobs": self.jobs,
            "cache_enabled": self.cache_enabled,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "executed_s": self.executed_s,
            "executed_cpu_s": self.executed_cpu_s,
            "utilization": self.utilization,
            "failed": self.failed,
            "retried": self.retried,
            "cells": [{"key": c.key, "label": c.label, "cached": c.cached,
                       "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                       "status": c.status, "attempts": c.attempts,
                       "error": c.error}
                      for c in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        """Rehydrate a serialised manifest, validating its schema.

        Raises :class:`RunnerError` on a missing or unknown ``version``
        and on structurally broken cell records.
        """
        version = data.get("version")
        if version is None:
            raise RunnerError(
                "manifest has no 'version' field; refusing to guess its schema")
        if version != SCHEMA_VERSION:
            raise RunnerError(
                f"unsupported manifest schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})")
        manifest = cls(jobs=int(data.get("jobs", 1)),
                       cache_enabled=bool(data.get("cache_enabled", True)),
                       mode=str(data.get("mode", "serial")),
                       wall_s=float(data.get("wall_s", 0.0)))
        try:
            for cell in data.get("cells", []):
                manifest.cells.append(CellRecord(
                    key=str(cell["key"]), label=str(cell["label"]),
                    cached=bool(cell["cached"]),
                    wall_s=float(cell.get("wall_s", 0.0)),
                    cpu_s=float(cell.get("cpu_s", 0.0)),
                    status=str(cell.get("status", "ok")),
                    attempts=int(cell.get("attempts", 1)),
                    error=str(cell.get("error", ""))))
        except (KeyError, TypeError, ValueError) as exc:
            raise RunnerError(f"malformed manifest cell record: {exc}") from None
        return manifest
