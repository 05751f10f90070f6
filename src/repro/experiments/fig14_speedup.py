"""Figure 14 — quad-core performance improvement over the no-prefetcher
baseline.

The cycle-accounting headline: Domino speeds the chip up the most
(16 % geometric mean in the paper vs 10 % for STMS), thanks to both
higher coverage and better timeliness (one metadata round trip instead
of two).  Web Search and Media Streaming gain little despite coverage
(high MLP), MapReduce-W's streams are too short to amortise metadata
latency, and SAT Solver defeats everyone.

Runs through the cell runner: one multicore cell per (workload,
prefetcher) including the baseline, under the scaled-LLC timing config.
"""

from __future__ import annotations

from ..runner import Cell
from .common import ExperimentOptions, ExperimentResult, speedup_table

PREFETCHERS = ("vldp", "isb", "stms", "digram", "domino")


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """The sweep: workloads × (baseline + prefetchers), timing config."""
    return [Cell(kind="multicore", workload=workload, prefetcher=name,
                 config_name="timing")
            for workload in options.workloads
            for name in ("baseline",) + PREFETCHERS]


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    rows, speedups, manifest = speedup_table(
        build_cells(options), options.workloads, PREFETCHERS, options)
    return ExperimentResult(
        experiment_id="fig14",
        title="Quad-core speedup over the no-prefetcher baseline "
              "(cycle model, scaled-LLC timing config)",
        headers=["workload", "baseline_ipc"] + list(PREFETCHERS),
        rows=rows,
        notes=("Paper shape: Domino best gmean (16% vs STMS 10%, ~7pp over "
               "VLDP); Domino leads the temporal designs in 8 of 9 "
               "workloads; little gain on high-MLP and short-stream "
               "workloads."),
        series={"speedups": speedups},
        manifest=manifest,
    )
