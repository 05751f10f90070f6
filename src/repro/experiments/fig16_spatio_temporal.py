"""Figure 16 — spatio-temporal prefetching: VLDP + Domino stacked.

The two techniques are orthogonal: VLDP predicts unobserved in-page
deltas (including compulsory misses), Domino replays observed global
sequences across pages.  Stacked, the paper's combination covers 43 pp
more than VLDP alone and 20 pp more than Domino alone, with
MapReduce-W super-additive.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import (ExperimentOptions, ExperimentResult, in_process_policy,
                     mean, payload_field)

PREFETCHERS = ("vldp", "domino", "vldp+domino")


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="trace", workload=workload, prefetcher=name)
             for workload in options.workloads for name in PREFETCHERS]
    payloads, manifest = run_cells(cells, options, in_process_policy())
    payloads_iter = iter(payloads)
    rows: list[list] = []
    acc: dict[str, list[float]] = {"vldp": [], "domino": [], "combo": []}
    for workload in options.workloads:
        vldp, domino, combo = (next(payloads_iter) for _ in PREFETCHERS)
        coverages = [payload_field(p, "coverage") for p in (vldp, domino, combo)]
        for key, coverage in zip(acc, coverages, strict=True):
            acc[key].append(coverage)
        hits = payload_field(combo, "component_hits", default={})
        total_hits = max(hits.get("vldp", 0) + hits.get("domino", 0), 1)
        rows.append([workload] + [round(c, 3) for c in coverages]
                    + [round(hits.get("vldp", 0) / total_hits, 3)])
    rows.append(["average", round(mean(acc["vldp"]), 3),
                 round(mean(acc["domino"]), 3), round(mean(acc["combo"]), 3), ""])
    return ExperimentResult(
        experiment_id="fig16",
        title="Spatio-temporal prefetching: VLDP, Domino, and the stack",
        headers=["workload", "vldp", "domino", "vldp+domino", "vldp_share"],
        rows=rows,
        notes=("Paper shape: the stack covers more than either component "
               "alone (+43pp over VLDP, +20pp over Domino on average); "
               "OLTP gains almost nothing over Domino alone."),
        series={"coverage": acc},
        manifest=manifest,
    )
