"""Figure 5 — coverage and overpredictions vs recursive lookup depth.

An idealised temporal prefetcher that matches up to N addresses
(falling back recursively to fewer) improves with N, but almost all of
the benefit is realised at N = 2 — the design point Domino adopts.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import (MAX_DEPTH, ExperimentOptions, ExperimentResult,
                     in_process_policy, mean, payload_field)


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="trace", workload=workload, prefetcher="multi_lookup",
                  degree=1, params=(("depth", depth),))
             for workload in options.workloads
             for depth in range(1, MAX_DEPTH + 1)]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    payloads_iter = iter(payloads)
    rows: list[list] = []
    cov_by_depth: list[list[float]] = [[] for _ in range(MAX_DEPTH)]
    over_by_depth: list[list[float]] = [[] for _ in range(MAX_DEPTH)]
    for workload in options.workloads:
        row: list = [workload]
        for depth in range(MAX_DEPTH):
            payload = next(payloads_iter)
            coverage = payload_field(payload, "coverage")
            overpredictions = payload_field(payload, "overprediction_ratio")
            cov_by_depth[depth].append(coverage)
            over_by_depth[depth].append(overpredictions)
            row.append(f"{coverage:.3f}/{overpredictions:.3f}")
        rows.append(row)
    rows.append(["average"] + [
        f"{mean(cov_by_depth[d]):.3f}/{mean(over_by_depth[d]):.3f}"
        for d in range(MAX_DEPTH)])
    return ExperimentResult(
        experiment_id="fig05",
        title="Coverage/overpredictions of an idealised temporal prefetcher "
              "with recursive N-address lookup (degree 1)",
        headers=["workload"] + [f"N={d}" for d in range(1, MAX_DEPTH + 1)],
        rows=rows,
        notes=("Cells are coverage/overpredictions.  Paper shape: both "
               "improve sharply from N=1 to N=2, little beyond."),
        manifest=manifest,
    )
