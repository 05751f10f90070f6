"""Cells: the unit of schedulable, cacheable experiment work.

A :class:`Cell` names one independent simulation — e.g. *run the domino
prefetcher at degree 1 over the oltp trace* — plus the system
configuration it runs under.  Cells are frozen dataclasses so they can
be hashed, pickled to worker processes, and serialised into cache keys.

The cache key of a cell is a SHA-256 over a canonical JSON rendering of
everything that determines its result:

* :data:`CODE_VERSION` — a salt bumped whenever simulator or prefetcher
  semantics change in a way that invalidates previously cached results;
* the cell itself (kind, workload, prefetcher, effective degree,
  the config overrides that differ from the base config, extra params);
* the full resolved :class:`~repro.config.SystemConfig` (so any config
  change — even a default changing in code — produces a new key);
* the trace-shaping fields of
  :class:`~repro.experiments.common.ExperimentOptions`
  (``n_accesses``, ``warmup_frac``, ``seed``).

Execution-policy knobs (worker count, cache directory, retry budget,
timeout, fault plan) never enter the key: they affect *how* a cell
runs, not *what* it computes.  The same key is what lets a re-run of a
killed sweep serve its finished cells from the store, and it is the
unit of deterministic fault injection (:mod:`repro.faults` rolls per
``(key, attempt)``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..config import SystemConfig, timing_config
from ..errors import RunnerError

#: Bump to invalidate every previously cached artifact (simulation
#: semantics changed).  Mirrored in the artifact payloads written by
#: :class:`repro.runner.store.ResultStore`.
CODE_VERSION = 2

#: Cell kinds understood by :mod:`repro.runner.execute`.
CELL_KINDS = ("trace", "opportunity", "lookup_depth", "timing", "multicore", "table1")

#: Named base configurations a cell can request.
CONFIG_NAMES = ("default", "timing")


@dataclass(frozen=True)
class Cell:
    """One independent, cacheable unit of an experiment sweep.

    ``kind`` selects the executor:

    ``trace``
        Trace-driven prefetcher run with the standard warm-up protocol:
        :meth:`repro.sim.engine.TraceSimulator.run_filtered` over the
        workload's shared L1 filter.  Uses ``workload``, ``prefetcher``,
        ``degree`` (``None`` → the sweep's default).
    ``opportunity``
        Sequitur analysis of the baseline miss stream
        (degree-independent — shared by fig01, fig02 and fig11–13).
    ``lookup_depth``
        Fig. 3/4 lookup-depth statistics of the same miss stream
        (``params`` carries ``max_depth``; shared by fig03 and fig04).
    ``timing``
        Single-core cycle-accounting run
        (:meth:`repro.sim.timing.TimingSimulator.run`) over the
        workload's trace; ``degree`` as for ``trace``.
    ``multicore``
        Quad-core cycle-accounting run
        (:func:`repro.sim.multicore.simulate_multicore`); ``prefetcher``
        may be ``"baseline"`` and ``workload`` may name a
        :data:`~repro.workloads.mixes.STANDARD_MIXES` entry.
    ``table1``
        Static rendering of the evaluated system parameters.

    ``config_name`` picks the base :class:`SystemConfig` (``"default"``
    = Table I, ``"timing"`` = the scaled-LLC cycle-model config) and
    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied
    on top via :meth:`SystemConfig.scaled`.  ``params`` carries
    kind-specific extras (hashed, forwarded to the prefetcher factory or
    the lookup-depth analyzer).
    """

    kind: str
    workload: str = ""
    prefetcher: str = ""
    degree: int | None = None
    config_name: str = "default"
    overrides: tuple[tuple[str, Any], ...] = ()
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise RunnerError(
                f"unknown cell kind {self.kind!r}; known: {', '.join(CELL_KINDS)}")
        if self.config_name not in CONFIG_NAMES:
            raise RunnerError(
                f"unknown config name {self.config_name!r}; "
                f"known: {', '.join(CONFIG_NAMES)}")

    @property
    def label(self) -> str:
        """Short human-readable identity for manifests and logs."""
        parts = [self.kind]
        if self.workload:
            parts.append(self.workload)
        if self.prefetcher:
            parts.append(self.prefetcher)
        if self.degree is not None:
            parts.append(f"d{self.degree}")
        return ":".join(parts)


def _base_config(config_name: str) -> SystemConfig:
    return SystemConfig() if config_name == "default" else timing_config()


def cell_config(cell: Cell) -> SystemConfig:
    """Resolve the cell's :class:`SystemConfig` (base + overrides)."""
    base = _base_config(cell.config_name)
    overrides = dict(cell.overrides)
    return base.scaled(**overrides) if overrides else base


def _canonical(value: Any) -> Any:
    """Make a value canonically JSON-serialisable (tuples → lists)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise RunnerError(f"value {value!r} cannot enter a cell cache key")


def cell_key(cell: Cell, options: "ExperimentOptionsLike") -> str:
    """Stable content hash identifying the cell's result.

    ``options`` is anything with ``n_accesses``, ``warmup_frac``,
    ``seed``, and ``degree`` attributes (duck-typed to avoid importing
    the experiments layer).
    """
    degree = cell.degree
    if degree is None and cell.kind in ("trace", "timing"):
        degree = options.degree
    # An override equal to the base value changes nothing: fig10's
    # deployed-size column is then the same artifact as fig13's domino.
    base = _base_config(cell.config_name)
    overrides = sorted((name, value) for name, value in cell.overrides
                       if getattr(base, name, None) != value)
    material = {
        "v": CODE_VERSION,
        "cell": {
            "kind": cell.kind,
            "workload": cell.workload,
            "prefetcher": cell.prefetcher,
            "degree": degree,
            "overrides": _canonical(overrides),
            "params": _canonical(sorted(cell.params)),
        },
        "config": _canonical(dataclasses.asdict(cell_config(cell))),
    }
    if cell.kind != "table1":  # static cells depend on config alone
        material["options"] = {
            "n_accesses": options.n_accesses,
            "warmup_frac": options.warmup_frac,
            "seed": options.seed,
        }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measured_window(cell: Cell,
                    options: "ExperimentOptionsLike") -> tuple[int, int] | None:
    """The trace slice a filter-reading cell's L1 filter covers.

    The miss-stream analyses (``opportunity``, ``lookup_depth``) read
    the measured window ``(warmup, n_accesses)`` alone; ``trace`` cells
    replay the whole-trace filter (``None``) and skip the warm-up
    themselves.
    """
    if cell.kind in ("opportunity", "lookup_depth"):
        return (options.warmup, options.n_accesses)
    return None


def l1_filter_key(workload: str, options: "ExperimentOptionsLike",
                  config: SystemConfig,
                  window: tuple[int, int] | None = None) -> str:
    """Stable content hash identifying one L1 filter artifact.

    The filter (:mod:`repro.sim.fastpath`) is the prefetcher-independent
    L1-D miss stream of one generated trace, so its identity is exactly
    what identifies the trace — ``(workload, n_accesses, seed)``, since
    generation is deterministic in those three — plus the L1-D geometry
    it was filtered through and the optional ``window`` bounds when the
    filter covers a trace slice (the :func:`measured_window` that the
    opportunity and lookup-depth cells read).  Deliberately **not**
    keyed on trace content: computing the key without the trace is what
    lets a warm store skip generation entirely.

    Both :data:`CODE_VERSION` and the fastpath's own
    :data:`~repro.sim.fastpath.FASTPATH_VERSION` salt the key, so either
    kind of semantic change invalidates stored filters.
    """
    from ..sim.fastpath import FASTPATH_VERSION

    material = {
        "v": CODE_VERSION,
        "fastpath_v": FASTPATH_VERSION,
        "artifact": "l1_filter",
        "workload": workload,
        "n_accesses": options.n_accesses,
        "seed": options.seed,
        "window": list(window) if window is not None else None,
        "l1d": _canonical(dataclasses.asdict(config.l1d)),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ExperimentOptionsLike:  # pragma: no cover - typing aid only
    """Structural stand-in for ExperimentOptions (avoids a layering cycle)."""

    n_accesses: int
    warmup_frac: float
    seed: int
    degree: int
    warmup: int
    per_core_accesses: int
