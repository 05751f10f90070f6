"""Figure 2 — average temporal stream length: STMS vs Digram vs Sequitur.

A *stream* is a run of consecutive correct prefetches.  Two-address
lookup (Digram) locks onto longer streams than single-address lookup
(STMS); the Sequitur decomposition gives the streams an oracle would
pick.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     mean, payload_field)


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [cell for workload in options.workloads for cell in (
        Cell(kind="trace", workload=workload, prefetcher="stms"),
        Cell(kind="trace", workload=workload, prefetcher="digram"),
        Cell(kind="opportunity", workload=workload))]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    # One row per workload: the stms, digram and Sequitur mean lengths.
    columns = range(3)
    payloads_iter = iter(payloads)
    values = [[payload_field(next(payloads_iter), "mean_stream_length")
               for _ in columns] for _ in options.workloads]
    rows: list[list] = [[workload] + [round(v, 2) for v in row]
                        for workload, row in zip(options.workloads, values)]
    rows.append(["average"] + [round(mean([row[i] for row in values]), 2)
                               for i in columns])
    return ExperimentResult(
        experiment_id="fig02",
        title="Average stream length with STMS, Digram, and Sequitur",
        headers=["workload", "stms", "digram", "sequitur"],
        rows=rows,
        notes=("Paper shape: Sequitur streams longest (7.6 avg in the "
               "paper), Digram longer than STMS (1.4 avg in the paper)."),
        manifest=manifest,
    )
