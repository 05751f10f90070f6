"""Figure 9 — Domino coverage vs History Table size.

Sweeping the HT capacity with an effectively unlimited EIT; the paper's
coverage saturates by 16 M entries, which picks the deployed size.  Our
traces are far shorter than the paper's full-system runs, so saturation
arrives at proportionally smaller HT sizes — the *shape* (monotone rise
to a plateau) is the reproduced result.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     payload_field)

#: HT capacities swept, in triggering-event entries.
HT_SIZES = (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 24)


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="trace", workload=workload, prefetcher="domino",
                  overrides=(("eit_rows", 1 << 22), ("ht_entries", ht_entries)))
             for workload in options.workloads for ht_entries in HT_SIZES]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    payloads_iter = iter(payloads)
    rows = [[workload] + [round(payload_field(next(payloads_iter), "coverage"), 3)
                          for _ in HT_SIZES]
            for workload in options.workloads]
    return ExperimentResult(
        experiment_id="fig09",
        title="Domino coverage vs History Table entries (EIT unlimited)",
        headers=["workload"] + [f"ht={n}" for n in HT_SIZES],
        rows=rows,
        notes=("Paper shape: coverage grows with HT size and saturates; "
               "the paper deploys 16 M entries (85 MB)."),
        manifest=manifest,
    )
