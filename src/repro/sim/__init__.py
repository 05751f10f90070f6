"""Simulators: trace containers, coverage engine, timing model.

* :mod:`repro.sim.trace` — the memory-access trace format shared by all
  simulators (the stand-in for Flexus trace files).
* :mod:`repro.sim.engine` — the per-miss event path both simulators
  replay L1 filters through, and trace-driven prefetcher evaluation
  producing coverage / overprediction / traffic numbers (Figs. 1–5,
  9–13, 15, 16).
* :mod:`repro.sim.timing` / :mod:`repro.sim.multicore` — simplified
  cycle model on the same path for the performance results (Figs. 6, 14).

Both simulators exclude a leading warm-up window from their counters
(the SimFlex checkpoint-warming analogue); there are no sampled
measurement windows or confidence intervals.
"""

from .trace import MemoryTrace, load_trace, save_trace
from .engine import TraceSimulator, SimulationResult, simulate_trace
from .timing import TimingSimulator, TimingResult
from .multicore import MulticoreResult, simulate_multicore

__all__ = [
    "MemoryTrace",
    "MulticoreResult",
    "SimulationResult",
    "TimingResult",
    "TimingSimulator",
    "TraceSimulator",
    "load_trace",
    "save_trace",
    "simulate_multicore",
    "simulate_trace",
]
