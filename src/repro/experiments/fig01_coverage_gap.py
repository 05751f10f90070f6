"""Figure 1 — the motivating gap: STMS/ISB coverage vs the opportunity.

The paper's opening observation: with unlimited metadata, the
best-performing temporal prefetcher (STMS) captures less than half of
the data misses while Sequitur shows much more repetition is there to
exploit, and PC-localised ISB does worse than global-history STMS.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     mean, payload_field)


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [cell for workload in options.workloads for cell in (
        Cell(kind="trace", workload=workload, prefetcher="isb"),
        Cell(kind="trace", workload=workload, prefetcher="stms"),
        Cell(kind="opportunity", workload=workload))]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    # One row per workload: isb coverage, stms coverage, opportunity.
    fields = ("coverage", "coverage", "opportunity")
    payloads_iter = iter(payloads)
    values = [[payload_field(next(payloads_iter), f) for f in fields]
              for _ in options.workloads]
    rows: list[list] = [[workload] + [round(v, 3) for v in row]
                        for workload, row in zip(options.workloads, values)]
    rows.append(["average"] + [round(mean([row[i] for row in values]), 3)
                               for i in range(len(fields))])
    return ExperimentResult(
        experiment_id="fig01",
        title="Read-miss coverage of ISB and STMS vs Sequitur opportunity",
        headers=["workload", "isb_coverage", "stms_coverage", "opportunity"],
        rows=rows,
        notes=("Paper shape: STMS < 47% of misses on average, ISB below "
               "STMS, both far below the Sequitur opportunity."),
        manifest=manifest,
    )
