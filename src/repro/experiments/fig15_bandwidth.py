"""Figure 15 — off-chip traffic overhead of STMS, Digram, and Domino.

The stack decomposes each temporal prefetcher's extra off-chip blocks
(over the no-prefetcher baseline) into incorrect prefetches, metadata
updates, and metadata reads, normalised to baseline demand traffic.
STMS pays the most (overpredictions); Domino beats Digram on metadata
reads because its single-address EIT lookups find matches more often.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from ..stats.bandwidth import BandwidthBreakdown
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     mean, payload_field)

PREFETCHERS = ("stms", "digram", "domino")


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="trace", workload=workload, prefetcher=name)
             for workload in options.workloads for name in PREFETCHERS]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    payloads_iter = iter(payloads)
    rows: list[list] = []
    totals: dict[str, list[float]] = {p: [] for p in PREFETCHERS}
    for workload in options.workloads:
        row: list = [workload]
        for name in PREFETCHERS:
            payload = next(payloads_iter)
            breakdown = BandwidthBreakdown(
                baseline_blocks=payload_field(payload, "triggering_events"),
                incorrect_prefetch_blocks=payload_field(payload, "overpredictions"),
                metadata_read_blocks=payload_field(payload, "metadata_reads"),
                metadata_write_blocks=payload_field(payload, "metadata_writes"),
            )
            totals[name].append(breakdown.total_overhead)
            row.append(f"{breakdown.incorrect_prefetch_overhead:.2f}"
                       f"+{breakdown.metadata_write_overhead:.2f}"
                       f"+{breakdown.metadata_read_overhead:.2f}"
                       f"={breakdown.total_overhead:.2f}")
        rows.append(row)
    rows.append(["average"] + [round(mean(totals[p]), 2) for p in PREFETCHERS])
    return ExperimentResult(
        experiment_id="fig15",
        title="Off-chip traffic overhead over baseline "
              "(incorrect + metadata-update + metadata-read)",
        headers=["workload"] + list(PREFETCHERS),
        rows=rows,
        notes=("Cells are incorrect+update+read=total, normalised to "
               "baseline demand blocks.  Paper shape: STMS highest "
               "(overpredictions), Digram and Domino lowest; Domino reads "
               "less metadata than Digram."),
        series={"total_overhead": totals},
        manifest=manifest,
    )
