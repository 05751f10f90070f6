"""Prefetcher-independent L1-D filtering (the cross-cell fast path).

In the trace-driven methodology (Section IV-C/D) prefetches only ever
fill the 32-block buffer next to the L1-D — the L1 itself is touched by
demand accesses alone.  The L1 hit/miss split of a trace is therefore a
pure function of ``(trace, l1 config)``: it is identical for every
prefetcher and every degree in a fig11/fig13-style grid.  This module
computes that split **once** and packages everything the engine needs
to replay only the miss events:

* the access ``indices`` of the L1 misses (so warm-up windows still
  land on the right boundary);
* the ``pcs`` and ``blocks`` of those misses (the prefetchers' entire
  input);
* the ``evicted`` block of each miss allocation (``-1`` when the set
  had a free way), which lets the replay maintain an exact L1
  *residency set* for candidate filtering without simulating the cache.

Residency is sufficient because the engine consults the L1 for only two
things: the hit/miss verdict of a demand access and the
``probe(candidate)`` membership test before a buffer insert.  LRU order
influences *which* block a future miss evicts — and that is precisely
what the ``evicted`` array records — so replaying misses against the
residency set is bit-identical to running the full cache
(:meth:`repro.sim.engine.TraceSimulator.run_filtered` carries the
replay; ``tests/sim/test_fastpath.py`` pins the equivalence).

Two build kernels produce identical filters: a closed-form numpy kernel
for 2-way LRU sets (every shipped L1 config) and, for any other
associativity, one scalar pass through the
:class:`~repro.memory.cache.Cache` model — the pass
:meth:`~repro.sim.engine.TraceSimulator.run` walks lazily through
:func:`l1_misses` instead of building a filter.

Filters persist as a JSON envelope plus a binary sidecar — a real
``.npy`` file of the four int64 columns written next to the envelope
by :class:`repro.runner.store` and opened by workers via
``np.load(..., mmap_mode="r")`` (zero-copy, page cache shared across
processes).  The cache *key* of a filter is owned by
:func:`repro.runner.cells.l1_filter_key` — the runner layer knows what
identifies a generated trace; this module only knows how to build,
encode, and replay filters.
"""

from __future__ import annotations

import io
import os
import time
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cancel import NEVER, current_token
from ..config import SystemConfig
from ..errors import SimulationError
from ..memory.cache import Cache
from ..obs import names as obs_names
from ..obs import scope as obs_scope
from ..obs.trace import span as trace_span
from .trace import MemoryTrace

#: Bump when the filter semantics or its persisted form change (rides
#: next to the runner's ``CODE_VERSION`` inside the artifact key
#: material).  Version 2 retired the zlib+base64 JSON-inline codec:
#: version-1 artifacts miss on their key and are rebuilt.
FASTPATH_VERSION = 2

_ARRAY_FIELDS = ("indices", "pcs", "blocks", "evicted")

#: Binary sidecar codec marker: the envelope stays JSON, the four int64
#: columns live in a ``.npy`` sidecar opened with ``mmap_mode="r"``.
BINARY_CODEC = "npy:<i8"

#: Fastpath telemetry scope (off until obs.configure()).
_OBS = obs_scope("sim.fastpath")


@dataclass(frozen=True)
class L1Filter:
    """The compact uncovered-access stream of one ``(trace, l1)`` pair.

    ``indices[j]``/``pcs[j]``/``blocks[j]`` describe the ``j``-th L1
    miss of the trace; ``evicted[j]`` is the block the miss allocation
    displaced (``-1`` for none).  ``n_accesses`` is the length of the
    originating trace (hits included), which the replay needs to place
    warm-up boundaries and to reconstruct the hit counters.

    All four arrays are **read-only**, whichever way the filter was
    produced — built from a trace or mapped from a binary sidecar — so
    a filter shared through the in-process memo or the page cache can
    never be mutated under another cell's feet.
    """

    trace_name: str
    n_accesses: int
    indices: np.ndarray
    pcs: np.ndarray
    blocks: np.ndarray
    evicted: np.ndarray
    #: Packed replay rows, built lazily once per filter object (see
    #: :meth:`replay_rows`); never part of identity or comparisons.
    _rows: list[list[int]] | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.indices)
        for fname in _ARRAY_FIELDS:
            arr = getattr(self, fname)
            if arr.ndim != 1 or len(arr) != n:
                raise SimulationError(
                    f"L1 filter field {fname} must be 1-D of length {n}")
            # Uniform ownership semantics on every construction path:
            # freshly built arrays are owned-and-frozen, read-only
            # memmaps are already non-writable.
            arr.setflags(write=False)
        if n > self.n_accesses:
            raise SimulationError(
                f"L1 filter has {n} misses for {self.n_accesses} accesses")

    @property
    def n_misses(self) -> int:
        return len(self.indices)

    @property
    def miss_rate(self) -> float:
        return self.n_misses / self.n_accesses if self.n_accesses else 0.0

    def replay_rows(self) -> list[list[int]]:
        """``[index, pc, block, evicted]`` rows for the engine's replay.

        One packed ``np.stack(...).tolist()`` materialisation, cached on
        the filter, so every cell sharing a memoized/store-served filter
        walks plain Python ints with zero per-cell prep.
        """
        rows = self._rows
        if rows is None:
            if self.n_misses:
                rows = np.stack(
                    (self.indices, self.pcs, self.blocks, self.evicted),
                    axis=1).tolist()
            else:
                rows = []
            object.__setattr__(self, "_rows", rows)
        return rows


# -- build kernels ----------------------------------------------------------


def _cancel_checks() -> tuple[Any, int]:
    """(token, check_every) with the NEVER sentinel when untokened."""
    cancel = current_token()
    if cancel is None:
        return None, NEVER
    cancel.raise_if_cancelled()
    return cancel, cancel.check_every


def l1_misses(l1: Cache, trace: MemoryTrace) -> Iterator[tuple[int, int, int, int]]:
    """Drive ``trace`` through ``l1``, yielding each miss lazily as an
    ``(index, pc, block, evicted)`` row (``evicted`` is ``-1`` when the
    set had a free way).

    :meth:`~repro.sim.engine.TraceSimulator.run` feeds it straight to
    the engine's event loop.  It checks no cancellation itself: the
    loop's metered checkpoint has to see each miss first.
    """
    pcs, blocks, _, _ = trace.as_lists()
    access = l1.access_traced
    for i, block in enumerate(blocks):
        hit, victim = access(block)
        if not hit:
            yield i, pcs[i], block, -1 if victim is None else victim


def _build_arrays_scalar(
        trace: MemoryTrace, config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference kernel: one scalar pass through the ``Cache`` model."""
    l1 = Cache(config.l1d)
    access = l1.access_traced
    pcs_list, blocks_list, _, _ = trace.as_lists()
    indices: list[int] = []
    miss_pcs: list[int] = []
    miss_blocks: list[int] = []
    evicted: list[int] = []
    # Cancellation checkpoints only — no progress advance: the replay
    # re-walks these accesses and meters them there, so advancing here
    # would count them twice in the job's reported progress.
    cancel, check_every = _cancel_checks()
    next_check = check_every if cancel is not None else NEVER
    for i, block in enumerate(blocks_list):
        if i >= next_check:
            cancel.raise_if_cancelled()
            next_check = i + check_every
        hit, victim = access(block)
        if hit:
            continue
        indices.append(i)
        miss_pcs.append(pcs_list[i])
        miss_blocks.append(block)
        evicted.append(victim if victim is not None else -1)
    return (np.asarray(indices, dtype=np.int64),
            np.asarray(miss_pcs, dtype=np.int64),
            np.asarray(miss_blocks, dtype=np.int64),
            np.asarray(evicted, dtype=np.int64))


def _build_arrays_lru2(
        trace: MemoryTrace, n_sets: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form kernel for 2-way LRU sets: pure numpy, no sweep.

    Two classic LRU identities make associativity 2 (both shipped
    configs) fully vectorisable:

    * an access **hits** iff its stack distance is <= 2, i.e. the gap
      back to the block's previous occurrence contains at most one
      distinct block — the gap is empty or a single same-block run;
    * the **resident pair** before any access is the two most recently
      used distinct blocks, so a miss's victim is the closer of the
      two: the block of the last pre-gap run (and no victim at all
      while the set has seen fewer than two distinct blocks).

    Everything reduces to run boundaries and previous-occurrence links,
    each one global stable sort or scan — no per-set work, no python
    loop over accesses.
    """
    blocks = np.ascontiguousarray(trace.blocks, dtype=np.int64)
    n = len(blocks)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    if n_sets & (n_sets - 1) == 0:
        set_idx = blocks & (n_sets - 1)
    else:
        set_idx = blocks % n_sets
    cancel, _ = _cancel_checks()

    def checkpoint() -> None:
        # Cancellation only — no progress advance (the replay re-walks
        # and meters these accesses; advancing here would count twice).
        if cancel is not None:
            cancel.raise_if_cancelled()

    checkpoint()
    g = np.arange(n, dtype=np.int64)
    order = np.argsort(set_idx, kind="stable")
    sorted_sets = set_idx[order]
    b_s = blocks[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = sorted_sets[1:] != sorted_sets[:-1]
    sstart = np.maximum.accumulate(np.where(is_start, g, 0))
    checkpoint()
    # Previous occurrence of the same block, in set-grouped coords
    # (same block => same set, so one value sort links occurrences).
    border = np.argsort(b_s, kind="stable")
    bb = b_s[border]
    prev_g = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same = bb[1:] == bb[:-1]
        prev_g[border[1:][same]] = border[:-1][same]
    checkpoint()
    # Runs of consecutive equal blocks (set boundaries break runs).
    change = is_start.copy()
    change[1:] |= b_s[1:] != b_s[:-1]
    run_start = np.maximum.accumulate(np.where(change, g, 0))
    run_id = np.cumsum(change)
    has_prev = prev_g >= 0
    prev1 = np.minimum(prev_g + 1, n - 1)
    gm1 = np.maximum(g - 1, 0)
    hit = has_prev & ((prev_g == g - 1) | (run_id[prev1] == run_id[gm1]))
    # Distinct blocks seen strictly earlier in the same set.
    first = (~has_prev).astype(np.int64)
    excl = np.cumsum(first) - first
    seen = excl - excl[sstart]
    miss = ~hit
    evict = miss & (seen >= 2)
    # Victim = block of the last run before the current one: the
    # second most recently used distinct block (the first is b_s[g-1],
    # which a missing access never equals).
    ldiff = np.maximum(run_start[gm1] - 1, 0)
    victim_s = np.where(evict, b_s[ldiff], np.int64(-1))
    checkpoint()
    orig = order[miss]
    merge = np.argsort(orig, kind="stable")
    indices = orig[merge]
    return (indices,
            np.ascontiguousarray(trace.pcs, dtype=np.int64)[indices],
            blocks[indices],
            victim_s[miss][merge])


def build_l1_filter(trace: MemoryTrace, config: SystemConfig) -> L1Filter:
    """One pass over ``trace`` through the L1-D alone.

    2-way L1s take the closed-form numpy kernel, every other
    associativity the scalar :class:`~repro.memory.cache.Cache` pass;
    both reproduce exactly the hit/miss split and eviction sequence the
    engine's event loop consumes, so the recorded events are precisely
    what every prefetcher cell would observe.
    """
    with trace_span(obs_names.SPAN_FASTPATH_BUILD, trace=trace.name,
                    accesses=len(trace)):
        wall0 = time.perf_counter()
        if config.l1d.ways == 2:
            arrays = _build_arrays_lru2(trace, config.l1d.n_sets)
        else:
            arrays = _build_arrays_scalar(trace, config)
        filt = L1Filter(trace.name, len(trace), *arrays)
        if _OBS.enabled:
            _OBS.counter(obs_names.MET_FASTPATH_BUILDS).inc()
            _OBS.info(obs_names.EVT_FASTPATH_BUILD, trace=trace.name,
                      accesses=len(trace), misses=filt.n_misses,
                      miss_rate=round(filt.miss_rate, 6),
                      wall_s=round(time.perf_counter() - wall0, 6))
        return filt


def build_l1_filter_scalar(trace: MemoryTrace,
                           config: SystemConfig) -> L1Filter:
    """The scalar ``Cache``-pass build, whatever the associativity.

    The baseline ``benchmarks/bench_fastpath.py`` measures the 2-way
    kernel against.
    """
    return L1Filter(trace.name, len(trace),
                    *_build_arrays_scalar(trace, config))


# -- payload codecs ---------------------------------------------------------


def filter_to_binary(filt: L1Filter) -> tuple[dict[str, Any], bytes]:
    """Serialise a filter as ``(JSON envelope, .npy sidecar bytes)``.

    The sidecar is a genuine ``.npy`` serialisation of one packed
    ``(4, n_misses)`` little-endian int64 array (rows: indices, pcs,
    blocks, evicted), so any numpy can open it — including with
    ``mmap_mode="r"``, which is how workers load it zero-copy.  The
    envelope records size and CRC so a mismatched or truncated sidecar
    is detected before use.
    """
    packed = np.ascontiguousarray(
        np.stack([getattr(filt, fname) for fname in _ARRAY_FIELDS], axis=0),
        dtype="<i8")
    buf = io.BytesIO()
    np.save(buf, packed, allow_pickle=False)
    data = buf.getvalue()
    payload: dict[str, Any] = {
        "version": FASTPATH_VERSION,
        "codec": BINARY_CODEC,
        "trace_name": filt.trace_name,
        "n_accesses": filt.n_accesses,
        "n_misses": filt.n_misses,
        "sidecar_bytes": len(data),
        "sidecar_crc32": zlib.crc32(data),
    }
    return payload, data


def filter_from_payload(payload: dict[str, Any]) -> L1Filter:
    """Rebuild a filter from an artifact payload.

    The payload must carry a ``sidecar_path`` (attached by
    :meth:`repro.runner.store.ResultStore.get` when it resolves the
    envelope's ``payload_path``).  Raises :class:`SimulationError` on
    any structural mismatch so the caller can treat the artifact as a
    miss, quarantine it, and rebuild from the trace.
    """
    if (payload.get("version") != FASTPATH_VERSION
            or payload.get("codec") != BINARY_CODEC):
        raise SimulationError(
            "L1 filter payload has an incompatible version or codec")
    try:
        n_accesses = int(payload["n_accesses"])
        n_misses = int(payload["n_misses"])
        name = str(payload["trace_name"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed L1 filter payload: {exc}") from exc
    path = payload.get("sidecar_path")
    if not isinstance(path, str) or not path:
        raise SimulationError(
            "binary L1 filter payload has no sidecar attached")
    expected = payload.get("sidecar_bytes")
    try:
        actual = os.path.getsize(path)
    except OSError as exc:
        raise SimulationError(
            f"L1 filter sidecar unreadable: {exc}") from exc
    if not isinstance(expected, int) or actual != expected:
        raise SimulationError(
            f"L1 filter sidecar size mismatch: recorded {expected!r} bytes, "
            f"found {actual}")
    try:
        # Zero-length arrays cannot be mmapped on every platform; the
        # empty filter is tiny anyway.
        arr = np.load(path, mmap_mode="r" if n_misses else None,
                      allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SimulationError(f"corrupt L1 filter sidecar: {exc}") from exc
    if (arr.ndim != 2 or arr.shape != (4, n_misses)
            or arr.dtype != np.dtype("<i8")):
        raise SimulationError(
            f"L1 filter sidecar shape mismatch: expected (4, {n_misses}) "
            f"<i8, found {arr.shape} {arr.dtype}")
    return L1Filter(name, n_accesses, arr[0], arr[1], arr[2], arr[3])
