"""Shared experiment plumbing: options, results, and shared table builders.

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

from ..runner import Cell, ExecutionPolicy, get_policy, run_cells
from ..stats.tables import format_table
from ..workloads.server import workload_names

#: The deepest lookup the motivation study (Figs. 3–5) examines.
MAX_DEPTH = 5


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
    #: :class:`repro.runner.manifest.RunManifest` of the experiment's
    #: one ``run_cells`` call (cache/parallelism accounting); ``None``
    #: only for table2, which runs no cells.
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


def in_process_policy() -> ExecutionPolicy:
    """The installed execution policy with ``jobs=1``: the serial sweeps
    keep its store and retries but never pool (pooling fig09 and fig10
    nearly doubled their peak memory)."""
    return replace(get_policy(), jobs=1)


def lookup_depth_figure(options: ExperimentOptions, stat: str, *,
                        experiment_id: str, title: str,
                        notes: str) -> ExperimentResult:
    """fig03's and fig04's table, ``stat`` per workload and lookup depth:
    both read the same in-process ``lookup_depth`` cell per workload."""
    cells = [Cell(kind="lookup_depth", workload=workload,
                  params=(("max_depth", MAX_DEPTH),))
             for workload in options.workloads]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    rows: list[list] = []
    per_depth: list[list[float]] = [[] for _ in range(MAX_DEPTH)]
    for workload, payload in zip(options.workloads, payloads):
        values = payload_field(payload, stat, default=[math.nan] * MAX_DEPTH)
        for depth, value in enumerate(values):
            per_depth[depth].append(value)
        rows.append([workload] + [round(v, 3) for v in values])
    rows.append(["average"] + [round(mean(vals), 3) for vals in per_depth])
    return ExperimentResult(
        experiment_id=experiment_id, title=title, notes=notes,
        headers=["workload"] + [f"depth{d}" for d in range(1, MAX_DEPTH + 1)],
        rows=rows, manifest=manifest)


def speedup_table(cells: Sequence[Cell], labels: Sequence[str],
                  prefetchers: Sequence[str], options: ExperimentOptions,
                  gmean: bool = True) -> tuple[list[list], dict[str, list[float]], Any]:
    """Rows of baseline IPC and speedup per prefetcher (Fig. 14's method,
    shared by fig14, ext01 and ext02), each prefetcher's speedups and the
    manifest.  ``cells`` holds, per label, its ``baseline`` cell and then
    one cell per prefetcher; they run under the installed policy.
    ``gmean`` appends the geometric-mean row."""
    payloads, manifest = run_cells(cells, options)
    payloads_iter = iter(payloads)
    rows: list[list] = []
    speedups: dict[str, list[float]] = {p: [] for p in prefetchers}
    for label in labels:
        baseline_ipc = payload_field(next(payloads_iter), "ipc")
        row: list = [label, round(baseline_ipc, 3)]
        for name in prefetchers:
            ipc = payload_field(next(payloads_iter), "ipc")
            speedup = ipc / baseline_ipc if baseline_ipc else 0.0
            speedups[name].append(speedup)
            row.append(round(speedup, 3))
        rows.append(row)
    if gmean:
        rows.append(["gmean", ""] + [round(gmean_speedup(speedups[p]), 3)
                                     for p in prefetchers])
    return rows, speedups, manifest


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
