"""Figure 12 — cumulative histogram of Sequitur stream lengths.

Explains why Digram's longer streams do not translate into more
coverage: a large fraction of temporal streams are length <= 2 (10–47 %
in the paper), for which a pair-only lookup cannot act at all, and most
of the rest are shorter than eight.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from ..stats.streamstats import DEFAULT_BINS
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     payload_field)


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="opportunity", workload=workload)
             for workload in options.workloads]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    bin_labels = [f"<={b}" for b in DEFAULT_BINS] + [f"{DEFAULT_BINS[-1]}+"]
    rows: list[list] = []
    for workload, payload in zip(options.workloads, payloads, strict=True):
        cdf = payload_field(payload, "length_cdf", default={})
        rows.append([workload] + [round(cdf.get(label, float("nan")), 3)
                                  for label in bin_labels])
    return ExperimentResult(
        experiment_id="fig12",
        title="Cumulative distribution of Sequitur temporal stream lengths",
        headers=["workload"] + bin_labels,
        rows=rows,
        notes=("Paper shape: 10-47% of streams have length <= 2; the "
               "majority are shorter than eight."),
        manifest=manifest,
    )
