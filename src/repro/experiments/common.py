"""Shared experiment plumbing: options, results, and cached helpers.

All experiments follow the same measurement protocol:

* traces of ``n_accesses`` accesses per workload (deterministic seed);
* the leading ``warmup_frac`` of every run trains caches and the
  sampled metadata tables but is excluded from the reported counters —
  the trace-scale analogue of SimFlex checkpoint warming;
* trace-driven experiments use the Table I :class:`SystemConfig`;
  cycle-accounting experiments use :func:`repro.config.timing_config`
  (scaled LLC; see DESIGN.md §2).

``ExperimentOptions.quick()`` shrinks everything for benchmarks/tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections.abc import Sequence
from typing import Any

from ..config import SystemConfig, timing_config
from ..prefetchers.registry import make_prefetcher
from ..sim.engine import SimulationResult, collect_miss_stream, simulate_trace
from ..stats.tables import format_table
from ..workloads.server import workload_names
from ..workloads.suite import WorkloadSuite


@dataclass(frozen=True)
class ExperimentOptions:
    """Knobs shared by every experiment driver."""

    n_accesses: int = 200_000
    warmup_frac: float = 0.5
    degree: int = 4
    workloads: tuple[str, ...] = field(default_factory=lambda: tuple(workload_names()))
    seed: int = 1234

    def scaled(self, **overrides: Any) -> "ExperimentOptions":
        return replace(self, **overrides)

    @classmethod
    def quick(cls, **overrides: Any) -> "ExperimentOptions":
        """Small sizes for CI/benchmark runs."""
        base = cls(n_accesses=60_000,
                   workloads=("oltp", "web_apache", "media_streaming"))
        return base.scaled(**overrides) if overrides else base

    @property
    def warmup(self) -> int:
        return int(self.n_accesses * self.warmup_frac)

    @property
    def per_core_accesses(self) -> int:
        """Trace length of each core in the multicore experiments."""
        return max(self.n_accesses // 2, 20_000)


@dataclass
class ExperimentResult:
    """Rows of one regenerated figure/table."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    #: Free-form machine-readable extras (per-workload series etc).
    series: dict = field(default_factory=dict)
    #: :class:`repro.runner.manifest.RunManifest` when the experiment
    #: went through the cell runner (cache/parallelism accounting).
    manifest: Any = None

    def render(self) -> str:
        out = format_table(self.headers, self.rows,
                           title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            out += f"\n{self.notes}"
        return out

    def column(self, header: str) -> list:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


class ExperimentContext:
    """Caches traces and baseline miss streams across one experiment."""

    def __init__(self, options: ExperimentOptions) -> None:
        self.options = options
        self.config = SystemConfig()
        self.timing = timing_config()
        self.suite = WorkloadSuite(seed=options.seed)
        self._miss_streams: dict[str, list[tuple[int, int]]] = {}
        #: Manifest of the most recent :meth:`run_cells` sweep (merged
        #: across calls within one experiment).
        self.last_manifest = None

    def trace(self, workload: str):
        return self.suite.trace(workload, self.options.n_accesses)

    def core_traces(self, workload: str):
        return self.suite.core_traces(workload,
                                      self.options.per_core_accesses,
                                      n_cores=self.timing.n_cores)

    def miss_stream(self, workload: str) -> list[tuple[int, int]]:
        """Baseline (pc, block) miss sequence of the measured window."""
        if workload not in self._miss_streams:
            trace = self.trace(workload)
            window = trace.slice(self.options.warmup, len(trace))
            self._miss_streams[workload] = collect_miss_stream(window, self.config)
        return self._miss_streams[workload]

    def miss_blocks(self, workload: str) -> list[int]:
        return [block for _, block in self.miss_stream(workload)]

    def run_prefetcher(self, workload: str, name: str,
                       degree: int | None = None,
                       config: SystemConfig | None = None,
                       **kwargs: Any) -> SimulationResult:
        """Trace-driven run with the standard warm-up protocol."""
        options = self.options
        cfg = config if config is not None else self.config
        prefetcher = make_prefetcher(
            name, cfg, degree=degree if degree is not None else options.degree,
            **kwargs)
        return simulate_trace(self.trace(workload), cfg, prefetcher,
                              warmup=options.warmup)

    def run_cells(self, cells: Sequence[Any]) -> list[dict]:
        """Execute a sweep of :class:`repro.runner.Cell` objects through
        the scheduler (worker pool + artifact cache) and return their
        payload dicts in input order.

        Experiments adopt this incrementally: build the full cell list
        up front, call ``run_cells`` once, then assemble rows from the
        payloads.  The run's manifest accumulates on ``last_manifest``
        so drivers can attach it to their :class:`ExperimentResult`.
        """
        from ..runner.scheduler import run_cells as _run_cells

        payloads, manifest = _run_cells(cells, self.options)
        self.last_manifest = (manifest if self.last_manifest is None
                              else self.last_manifest.merged_with(manifest))
        return payloads


def payload_field(payload: Any, name: str, default: Any = float("nan")) -> Any:
    """A field from a cell payload, tolerating failed cells.

    Under a degradable execution policy (``keep_going``), cells that
    exhausted their retry budget come back as ``None`` payloads.
    Drivers read fields through this helper so a partially failed sweep
    still renders — missing values surface as ``nan`` in the table
    instead of a ``TypeError`` that would discard the surviving cells.
    """
    if not isinstance(payload, dict):
        return default
    return payload.get(name, default)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 on empty input."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def gmean_speedup(speedups: Sequence[float]) -> float:
    """Geometric mean of speedup ratios (the paper's summary metric)."""
    speedups = list(speedups)
    if not speedups:
        return 1.0
    return math.exp(sum(math.log(max(s, 1e-9)) for s in speedups) / len(speedups))
