"""The benchmark's three workloads: one per host-cost path of the paper's
evaluation.

* ``coverage-grid`` — the trace-driven coverage grid (Figs. 11/13)
  through the cell runner: fastpath replay, prefetcher callbacks, the
  prefetch buffer, filter build, store, shm and Sequitur.  web_apache,
  oltp and sat_solver span the suite's L1 miss ratio (0.56, 0.88 and
  0.94 at 60k accesses), so skipping more hits and making each miss
  cheaper both show.  fig13 re-reads the filters and opportunity cells
  fig11 wrote, so one iteration exercises store writes and reads.
* ``timing-grid`` — the quad-core cycle model (Fig. 14) through the
  runner: ``sim.timing``, ``sim.multicore``, the caches and the DRAM
  ledger.  oltp (60% dependent misses) drives the serialised-miss path;
  media_streaming (2%) drives the ROB-overlap path.
* ``sensitivity-sweep`` — serial table-size sweeps (Figs. 9/10) through
  the unfiltered per-access engine in one process: no runner, store,
  pool or shm.  It uses ``sim.engine``'s full loop where the coverage
  grid uses the replay, so a change that helps one and hurts the other
  shows.

Every workload runs the experiment drivers exactly as ``domino-repro
run`` does, with the shipped defaults; only the trace length, the
workload list and the seed are set here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from repro.config import timing_config
from repro.experiments import (fig09_ht_sensitivity, fig10_eit_sensitivity,
                               fig11_degree1, fig14_speedup)
from repro.experiments.common import (ExperimentOptions, ExperimentResult,
                                      gmean_speedup, mean)

#: Pool workers for the runner-backed workloads (the benchmark host has
#: two cores; more workers would only time-slice them).
JOBS = 2


@dataclass(frozen=True)
class Plan:
    """What one iteration runs and how much work that is."""

    options: ExperimentOptions
    #: Cells (runner workloads) or ``run_prefetcher`` calls (sweep).
    operations: int
    #: Trace accesses covered by the iteration's simulations.
    accesses: int


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    workloads: tuple[str, ...]
    n_accesses: int

    def plan(self, seed: int, tiny: bool = False) -> Plan:
        """The iteration's options and its operation/access counts.

        ``tiny`` shrinks the run to one workload and a few thousand
        accesses for the harness self-test.
        """
        workloads = self.workloads[:1] if tiny else self.workloads
        n = 4_000 if tiny else self.n_accesses
        options = ExperimentOptions(n_accesses=n, workloads=workloads, seed=seed)
        return Plan(options, *_counts(self.name, options))

    def check(self, results: dict[str, ExperimentResult],
              options: ExperimentOptions) -> list[str]:
        """Shape and range checks on the results (problems, or [])."""
        problems = []
        for exp, result in results.items():
            # Grids append an average/gmean row; the sweeps do not.
            expected = len(options.workloads) + (exp in ("fig11", "fig13", "fig14"))
            if len(result.rows) != expected:
                problems.append(f"{exp}: {len(result.rows)} rows, expected {expected}")
            for value in _numbers(result.series) + _numbers(result.rows):
                if not math.isfinite(value) or value < 0:
                    problems.append(f"{exp}: bad value {value!r}")
                    break
        if self.name == "coverage-grid":
            for exp in self.experiments:
                for series in results[exp].series["coverage"].values():
                    if any(not 0.0 <= c <= 1.0 for c in series):
                        problems.append(f"{exp}: coverage outside [0, 1]")
        elif self.name == "timing-grid":
            speedups = results["fig14"].series["speedups"]
            if any(s <= 0 for series in speedups.values() for s in series):
                problems.append("fig14: non-positive speedup")
        return problems

    def headline(self, results: dict[str, ExperimentResult]) -> str:
        """The model's headline number beside the paper's (ungated)."""
        if self.name == "coverage-grid":
            cov = mean(results["fig11"].series["coverage"]["domino"])
            return (f"Domino average degree-1 coverage {cov:.1%} "
                    "(paper: 56%)")
        if self.name == "timing-grid":
            speedup = gmean_speedup(results["fig14"].series["speedups"]["domino"])
            return (f"Domino gmean quad-core speedup {speedup - 1:+.1%} "
                    "(paper: +16%)")
        parts = []
        for exp, label in (("fig09", "HT entries"), ("fig10", "EIT rows")):
            result = results[exp]
            columns = result.headers[1:]
            means = [mean(result.column(h)) for h in columns]
            knee = next(h for h, m in zip(columns, means) if m >= 0.99 * means[-1])
            parts.append(f"{exp} plateau {means[-1]:.3f} coverage from "
                         f"{knee.split('=')[1]} {label}")
        return "; ".join(parts) + " (paper: saturates at 16M HT entries, 2M EIT rows)"


def _counts(name: str, options: ExperimentOptions) -> tuple[int, int]:
    n = options.n_accesses
    if name == "coverage-grid":
        cells = (fig11_degree1.build_cells(options, 1)
                 + fig11_degree1.build_cells(options, 4))
        trace_cells = sum(1 for c in cells if c.kind == "trace")
        return len(cells), trace_cells * n
    if name == "timing-grid":
        cells = fig14_speedup.build_cells(options)
        # Per-core trace length as the multicore cell executor sizes it.
        per_core = max(n // 2, 20_000)
        return len(cells), len(cells) * per_core * timing_config().n_cores
    calls = len(options.workloads) * (len(fig09_ht_sensitivity.HT_SIZES)
                                      + len(fig10_eit_sensitivity.EIT_ROWS))
    return calls, calls * n


def _numbers(value: Any) -> list[float]:
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    return []


def digest(results: dict[str, ExperimentResult]) -> str:
    """SHA-256 over every experiment's ``rows`` and ``series``.

    Rows and series rather than raw cell payloads, so that payload
    fields added later do not move the digest while any change to a
    reported number does.
    """
    material = {exp: {"rows": r.rows, "series": r.series}
                for exp, r in sorted(results.items())}
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("coverage-grid", ("fig11", "fig13"),
             ("web_apache", "oltp", "sat_solver"), 60_000),
    Workload("timing-grid", ("fig14",), ("oltp", "media_streaming"), 30_000),
    # 30k rather than 60k: the serial sweep spreads more than the pool
    # grids on a shared host, and shorter iterations give a run's median
    # twice the samples.
    Workload("sensitivity-sweep", ("fig09", "fig10"), ("oltp", "web_apache"), 30_000),
)}
