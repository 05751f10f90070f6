"""Figure 11 — coverage and overpredictions of all prefetchers, degree 1.

The headline trace-based comparison: Domino covers the most misses
(56 % in the paper, 8 % over STMS) and approaches the Sequitur
opportunity; Digram has the fewest overpredictions but loses coverage
to its two-address-only lookup; VLDP and ISB trail.

Runs through the cell runner: one trace cell per (workload,
prefetcher) plus one degree-independent opportunity cell per workload,
so fig11 and fig13 share their Sequitur cells in the artifact cache.
"""

from __future__ import annotations

from ..prefetchers.registry import PAPER_PREFETCHERS
from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, mean, payload_field


def build_cells(options: ExperimentOptions, degree: int) -> list[Cell]:
    """The sweep: workloads × prefetchers, plus opportunity per workload."""
    cells: list[Cell] = []
    for workload in options.workloads:
        for name in PAPER_PREFETCHERS:
            cells.append(Cell(kind="trace", workload=workload,
                              prefetcher=name, degree=degree))
        cells.append(Cell(kind="opportunity", workload=workload))
    return cells


def run(options: ExperimentOptions | None = None, degree: int = 1) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options, degree), options)
    payloads_iter = iter(payloads)
    rows: list[list] = []
    cov_acc: dict[str, list[float]] = {p: [] for p in PAPER_PREFETCHERS}
    over_acc: dict[str, list[float]] = {p: [] for p in PAPER_PREFETCHERS}
    opp_acc: list[float] = []
    for workload in options.workloads:
        cells: list = [workload]
        for name in PAPER_PREFETCHERS:
            payload = next(payloads_iter)
            coverage = payload_field(payload, "coverage")
            overpredictions = payload_field(payload, "overprediction_ratio")
            cov_acc[name].append(coverage)
            over_acc[name].append(overpredictions)
            cells.append(f"{coverage:.3f}/{overpredictions:.3f}")
        opportunity = payload_field(next(payloads_iter), "opportunity")
        opp_acc.append(opportunity)
        cells.append(round(opportunity, 3))
        rows.append(cells)
    rows.append(["average"]
                + [f"{mean(cov_acc[p]):.3f}/{mean(over_acc[p]):.3f}"
                   for p in PAPER_PREFETCHERS]
                + [round(mean(opp_acc), 3)])
    return ExperimentResult(
        experiment_id="fig11" if degree == 1 else "fig13",
        title=f"Coverage/overpredictions, prefetch degree {degree}",
        headers=["workload"] + list(PAPER_PREFETCHERS) + ["sequitur"],
        rows=rows,
        notes=("Cells are coverage/overpredictions.  Paper shape (deg 1): "
               "Domino best coverage (~8% relative over STMS), Digram "
               "lowest overpredictions, Domino >90% of the opportunity."),
        series={"coverage": {p: cov_acc[p] for p in PAPER_PREFETCHERS},
                "overpredictions": {p: over_acc[p] for p in PAPER_PREFETCHERS},
                "opportunity": opp_acc},
        manifest=manifest,
    )
