"""Extension experiment: speedup sensitivity to memory latency.

The paper's timeliness argument — Domino issues a stream's first
prefetch after one serialised metadata round trip where STMS needs two
— should matter *more* as memory latency grows (each saved round trip
is worth more cycles).  This experiment sweeps the memory latency on
one workload and reports STMS vs Domino speedup at each point; the gap
widening with latency is the predicted signature.

Each point is a set of multicore cells with a ``memory_latency_ns``
override; the 45 ns point is the timing config's own latency, so its
cells are fig14's.
"""

from __future__ import annotations

from ..runner import Cell
from .common import ExperimentOptions, ExperimentResult, speedup_table

LATENCIES_NS = (30.0, 45.0, 60.0, 90.0)
PREFETCHERS = ("stms", "domino")


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    workload = options.workloads[0]
    cells = [Cell(kind="multicore", workload=workload, prefetcher=name,
                  config_name="timing",
                  overrides=(("memory_latency_ns", latency),))
             for latency in LATENCIES_NS
             for name in ("baseline",) + PREFETCHERS]
    rows, _, manifest = speedup_table(
        cells, [f"{latency:g} ns" for latency in LATENCIES_NS], PREFETCHERS,
        options, gmean=False)
    return ExperimentResult(
        experiment_id="ext02",
        title=f"Extension: speedup vs memory latency ({workload})",
        headers=["memory_latency", "baseline_ipc"] + list(PREFETCHERS),
        rows=rows,
        notes=("Predicted signature: both prefetchers gain more at higher "
               "latency, and Domino's one-round-trip first prefetch widens "
               "its edge over STMS as the round trip gets more expensive."),
        manifest=manifest,
    )
