"""Extension experiment (beyond the paper): heterogeneous mixes.

The paper evaluates homogeneous quad-core workloads.  Consolidated
servers co-schedule different applications per core, which stresses the
shared LLC and the shared off-chip channel differently: a
bandwidth-hungry neighbour (Web Apache) eats into the headroom a
metadata-heavy temporal prefetcher needs.  This experiment runs the
standard mixes and reports per-prefetcher speedup over the
no-prefetcher baseline — the Fig. 14 methodology on mixed cores: one
multicore cell per (mix, prefetcher), the mix named in ``workload``.
"""

from __future__ import annotations

from ..runner import Cell
from ..workloads.mixes import STANDARD_MIXES
from .common import ExperimentOptions, ExperimentResult, speedup_table

PREFETCHERS = ("stms", "digram", "domino")


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    cells = [Cell(kind="multicore", workload=mix, prefetcher=name,
                  config_name="timing")
             for mix in STANDARD_MIXES for name in ("baseline",) + PREFETCHERS]
    rows, speedups, manifest = speedup_table(
        cells, list(STANDARD_MIXES), PREFETCHERS, options)
    return ExperimentResult(
        experiment_id="ext01",
        title="Extension: speedup on heterogeneous quad-core mixes",
        headers=["mix", "baseline_ipc"] + list(PREFETCHERS),
        rows=rows,
        notes=("Beyond the paper: per-core mixed workloads.  Expected "
               "shape: the Domino-over-STMS ordering survives consolidation."),
        series={"speedups": speedups},
        manifest=manifest,
    )
