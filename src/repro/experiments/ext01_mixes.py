"""Extension experiment (beyond the paper): heterogeneous mixes.

The paper evaluates homogeneous quad-core workloads.  Consolidated
servers co-schedule different applications per core, which stresses the
shared LLC and the shared off-chip channel differently: a
bandwidth-hungry neighbour (Web Apache) eats into the headroom a
metadata-heavy temporal prefetcher needs.  This experiment runs the
standard mixes and reports per-prefetcher speedup over the
no-prefetcher baseline — the Fig. 14 methodology on mixed cores.
"""

from __future__ import annotations

from ..sim.multicore import simulate_multicore
from ..workloads.mixes import STANDARD_MIXES, mix_traces
from .common import (ExperimentContext, ExperimentOptions, ExperimentResult,
                     gmean_speedup)

PREFETCHERS = ("stms", "digram", "domino")


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    ctx = ExperimentContext(options)
    rows: list[list] = []
    speedups: dict[str, list[float]] = {p: [] for p in PREFETCHERS}
    for mix_name in STANDARD_MIXES:
        traces = mix_traces(mix_name, options.per_core_accesses,
                            suite=ctx.suite, seed=options.seed)
        baseline = simulate_multicore(traces, ctx.timing, "baseline",
                                      warmup_frac=options.warmup_frac)
        cells: list = [mix_name, round(baseline.ipc, 3)]
        for name in PREFETCHERS:
            result = simulate_multicore(traces, ctx.timing, name,
                                        warmup_frac=options.warmup_frac)
            speedup = result.ipc / baseline.ipc if baseline.ipc else 0.0
            speedups[name].append(speedup)
            cells.append(round(speedup, 3))
        rows.append(cells)
    rows.append(["gmean", ""] + [round(gmean_speedup(speedups[p]), 3)
                                 for p in PREFETCHERS])
    return ExperimentResult(
        experiment_id="ext01",
        title="Extension: speedup on heterogeneous quad-core mixes",
        headers=["mix", "baseline_ipc"] + list(PREFETCHERS),
        rows=rows,
        notes=("Beyond the paper: per-core mixed workloads.  Expected "
               "shape: the Domino-over-STMS ordering survives consolidation."),
        series={"speedups": speedups},
    )
