"""Memory-access trace format.

A :class:`MemoryTrace` is the unit of input to every simulator: a
sequence of demand data accesses, each carrying

* ``pc``     — the (synthetic) program counter of the load, used by the
  PC-localised ISB prefetcher;
* ``block``  — the 64-byte block address touched;
* ``dep``    — 1 if the access depends on the data returned by the
  previous off-chip miss (a pointer-chase link); dependent misses
  serialise in the timing model, independent ones overlap in the ROB;
* ``work``   — the number of non-memory instructions executed since the
  previous access (drives the instruction count / IPC metric).

The arrays are stored as parallel numpy vectors for compactness.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import SimulationError, TraceError

_FIELDS = ("pcs", "blocks", "deps", "works")


@dataclass(frozen=True)
class MemoryTrace:
    """Immutable container of parallel access arrays."""

    pcs: np.ndarray
    blocks: np.ndarray
    deps: np.ndarray
    works: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        n = len(self.blocks)
        for fname in _FIELDS:
            arr = getattr(self, fname)
            if arr.ndim != 1:
                raise TraceError(f"trace field {fname} must be 1-D")
            if len(arr) != n:
                raise TraceError("trace fields must have equal length")
        if n and (self.blocks < 0).any():
            raise TraceError("block addresses must be non-negative")

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def instructions(self) -> int:
        """Total instruction count represented by the trace (memory
        operations plus the non-memory work between them)."""
        return int(self.works.sum()) + len(self)

    @property
    def footprint_blocks(self) -> int:
        """Number of distinct blocks touched."""
        return int(np.unique(self.blocks).size)

    def slice(self, start: int, stop: int) -> "MemoryTrace":
        """Sub-trace covering accesses [start, stop).

        Bounds are validated — negative indices and out-of-range
        windows raise :class:`TraceError` rather than silently
        producing empty or wrapped sub-traces (numpy slice semantics
        would otherwise swallow both mistakes).
        """
        if not (0 <= start <= stop <= len(self)):
            raise TraceError(
                f"slice [{start}:{stop}) out of bounds for trace "
                f"{self.name!r} of length {len(self)}")
        return MemoryTrace(
            pcs=self.pcs[start:stop],
            blocks=self.blocks[start:stop],
            deps=self.deps[start:stop],
            works=self.works[start:stop],
            name=f"{self.name}[{start}:{stop}]",
        )


def validate_warmup(warmup: int, n_accesses: int) -> None:
    """``warmup`` leading accesses must leave at least one measured one.

    Shared by the trace engine and the timing model.  Without it, a
    warm-up window covering the whole trace would pass silently: the
    counter reset at ``i == warmup`` never fires, so the "measured"
    result would include the training window.
    """
    if warmup < 0:
        raise SimulationError(f"warmup must be non-negative, got {warmup}")
    if warmup and warmup >= n_accesses:
        raise SimulationError(
            f"warmup of {warmup} accesses leaves no measured window "
            f"in a trace of {n_accesses} accesses")


def save_trace(trace: MemoryTrace, path: str | Path) -> None:
    """Persist a trace as a compressed ``.npz`` archive."""
    np.savez_compressed(
        Path(path),
        pcs=trace.pcs,
        blocks=trace.blocks,
        deps=trace.deps,
        works=trace.works,
        name=np.array(trace.name),
    )


def load_trace(path: str | Path) -> MemoryTrace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        # Truncated writes and arbitrary garbage surface as BadZipFile
        # or ValueError from numpy's header parser.
        raise TraceError(f"malformed trace file {path}: {exc}") from exc
    with data:
        try:
            return MemoryTrace(
                pcs=data["pcs"],
                blocks=data["blocks"],
                deps=data["deps"],
                works=data["works"],
                name=str(data["name"]),
            )
        except KeyError as exc:
            raise TraceError(f"malformed trace file {path}: missing {exc}") from exc
