"""Figure 10 — Domino coverage vs Enhanced Index Table rows.

Sweeping the EIT row count with the HT fixed at its deployed size; the
paper's coverage saturates at 2 M rows (128 MB).  As with Fig. 9, our
shorter traces saturate at proportionally smaller tables — the plateau
shape is the result.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     payload_field)

#: EIT row counts swept.
EIT_ROWS = (1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 21)


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="trace", workload=workload, prefetcher="domino",
                  overrides=(("eit_rows", eit_rows),))
             for workload in options.workloads for eit_rows in EIT_ROWS]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    payloads_iter = iter(payloads)
    rows = [[workload] + [round(payload_field(next(payloads_iter), "coverage"), 3)
                          for _ in EIT_ROWS]
            for workload in options.workloads]
    return ExperimentResult(
        experiment_id="fig10",
        title="Domino coverage vs EIT rows (HT at deployed size)",
        headers=["workload"] + [f"rows={n}" for n in EIT_ROWS],
        rows=rows,
        notes=("Paper shape: coverage grows with EIT rows and saturates; "
               "the paper deploys 2 M rows (128 MB)."),
        manifest=manifest,
    )
