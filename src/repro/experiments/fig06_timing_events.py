"""Figure 6 — timing of metadata events: STMS's two round trips vs
Domino's one.

Fig. 6 is a timeline diagram, not a measurement, so the regenerable
content is (a) the number of serialised off-chip metadata accesses each
design needs before the first prefetch of a stream and (b) the measured
consequence in the cycle model: the fraction of prefetch hits that
arrive late.  One single-core ``timing`` cell per prefetcher, under the
installed policy.
"""

from __future__ import annotations

from ..config import timing_config
from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, payload_field

PREFETCHERS = ("stms", "digram", "domino")


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    workload = options.workloads[0]
    cells = [Cell(kind="timing", workload=workload, prefetcher=name,
                  config_name="timing") for name in PREFETCHERS]
    payloads, manifest = run_cells(cells, options)
    latency = timing_config().memory_latency_cycles
    rows: list[list] = []
    for name, payload in zip(PREFETCHERS, payloads):
        round_trips = payload_field(payload, "first_prefetch_round_trips")
        rows.append([name, round_trips, round_trips * latency,
                     round(1.0 - payload_field(payload, "timeliness"), 3),
                     payload_field(payload, "prefetch_hits")])
    return ExperimentResult(
        experiment_id="fig06",
        title=f"Metadata round trips before a stream's first prefetch "
              f"({workload})",
        headers=["prefetcher", "serialised_round_trips",
                 "first_prefetch_delay_cycles", "late_hit_fraction",
                 "prefetch_hits"],
        rows=rows,
        notes=("Paper shape: STMS/Digram wait two serialised memory "
               "accesses (IT then HT) before the first prefetch; Domino's "
               "EIT row already carries the next address, so one suffices."),
        manifest=manifest,
    )
