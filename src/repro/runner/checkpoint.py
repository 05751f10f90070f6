"""Run-scoped checkpoint journals: crash-safe records of completed cells.

A long sweep killed at 80% should not restart from zero.  A ``--run-id``
run starts one :class:`CheckpointJournal`, and each of its ``run_cells``
calls appends a line for every cell whose payload has been durably
persisted to the artifact store.  Each append is flushed *and* fsync'd
before the scheduler moves on, so after a SIGKILL the journal holds
exactly the cells whose artifacts are safe on disk — ``domino-repro run
--resume <run-id>`` loads the journal, skips those cells, and
reproduces bit-identical payloads from the store.

Layout (under the artifact-store base, ``.domino-cache/runs/`` by
default)::

    .domino-cache/
      runs/
        <run-id>.ckpt        # JSONL: header line, then one line per cell

The journal is append-only JSONL: a header ``{"schema", "run_id"}``
followed by ``{"key", "status"}`` records.  Loading tolerates a torn
final line (the one write a crash can interrupt) but refuses files that
are not checkpoint journals at all — resuming against the wrong file is
a user error worth a loud :class:`~repro.errors.CheckpointError`.

The journal never stores payloads; those live in the content-addressed
store.  A journaled key whose artifact has since been evicted simply
re-executes — the journal is an optimisation and an audit record, never
a second source of truth.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any

from ..errors import CheckpointError

#: Bump on any backwards-incompatible change to the journal line format.
SCHEMA_VERSION = 1

#: Directory (under the store base) holding per-run journals.
RUNS_DIR = "runs"

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def validate_run_id(run_id: str) -> str:
    """A run id must be a safe filename component."""
    if not _RUN_ID_RE.match(run_id):
        raise CheckpointError(
            f"invalid run id {run_id!r}: use letters, digits, '.', '_', '-' "
            "(max 128 chars, must not start with a separator)")
    return run_id


class CheckpointJournal:
    """Append-only, fsync'd journal of one run's completed cell keys."""

    def __init__(self, path: str | Path, run_id: str) -> None:
        self.path = Path(path)
        self.run_id = run_id
        #: Keys already journaled (loaded on resume; grows on record()).
        self.seen: set[str] = set()
        self._fh = None

    # -- construction ---------------------------------------------------
    @classmethod
    def open(cls, base: str | Path, run_id: str, resume: bool = False,
             append: bool = False) -> "CheckpointJournal":
        """Open the journal for ``run_id`` under store base ``base``.

        A fresh open truncates any stale journal with the same id; a
        resumed one loads the completed-key set and keeps appending, and
        raises :class:`CheckpointError` when the run never checkpointed.
        ``append`` resumes a journal that exists and starts one that does
        not: every ``run_cells`` call opens the run's journal that way.
        """
        validate_run_id(run_id)
        path = Path(base) / RUNS_DIR / f"{run_id}.ckpt"
        journal = cls(path, run_id)
        if resume and not path.is_file():
            raise CheckpointError(
                f"cannot resume run {run_id!r}: no checkpoint at {path}")
        if resume or (append and path.is_file()):
            journal.seen = journal.load()
            journal._open_fh(truncate=False)
        else:
            journal._open_fh(truncate=True)
            journal._append({"schema": SCHEMA_VERSION, "run_id": run_id})
        return journal

    def _open_fh(self, truncate: bool) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w" if truncate else "a", encoding="utf-8")

    # -- reading --------------------------------------------------------
    def load(self) -> set[str]:
        """Completed cell keys recorded in the journal on disk.

        Tolerates a torn trailing line (interrupted final append) but
        rejects files whose header is missing or wrong — that means the
        path is not a journal this code wrote.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}") from exc
        lines = text.splitlines()
        if not lines:
            raise CheckpointError(f"checkpoint {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.path} is not a v{SCHEMA_VERSION} checkpoint journal")
        keys: set[str] = set()
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):  # torn tail from a killed writer
                    break
                raise CheckpointError(
                    f"corrupt checkpoint record at {self.path}:{lineno}") from None
            if isinstance(record, dict) and isinstance(record.get("key"), str):
                keys.add(record["key"])
        return keys

    # -- writing --------------------------------------------------------
    def record(self, key: str, status: str = "ok") -> None:
        """Durably journal one completed cell (atomic append + fsync)."""
        if key in self.seen:
            return
        self._append({"key": key, "status": status})
        self.seen.add(key)

    def _append(self, record: dict[str, Any]) -> None:
        if self._fh is None:  # pragma: no cover - misuse guard
            raise CheckpointError("checkpoint journal is closed")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
