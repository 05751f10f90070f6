"""repro — a reproduction of the Domino Temporal Data Prefetcher (HPCA 2018).

The package provides:

* the Domino prefetcher and every baseline the paper compares against
  (STMS, Digram, idealised ISB, VLDP);
* the substrate they run on: caches, prefetch buffer, DRAM/bandwidth
  model, off-chip metadata accounting;
* synthetic server-workload generators standing in for the paper's
  CloudSuite/SPECweb/TPC-C traces;
* Sequitur grammar inference for opportunity analysis;
* trace-driven and cycle-accounting simulators;
* one experiment driver per figure/table of the paper's evaluation.

Quickstart::

    from repro import SystemConfig, simulate_trace, make_prefetcher, get_workload
    from repro.workloads import generate_trace

    config = SystemConfig()
    trace = generate_trace(get_workload("oltp"), n_accesses=200_000)
    result = simulate_trace(trace, config, make_prefetcher("domino", config))
    print(result.summary())
"""

from .config import BLOCK_SIZE, CacheConfig, SystemConfig, small_test_config
from .errors import ReproError

# NOTE: ``repro.prefetchers`` must initialise before anything imports
# ``repro.core`` through the package machinery: core.domino depends only
# on prefetcher *submodules* (safe mid-initialisation), while
# ``prefetchers/__init__`` needs the DominoPrefetcher *name* and would
# observe a partially initialised module in the reverse order.
from .prefetchers import (
    DominoPrefetcher,
    DigramPrefetcher,
    IsbPrefetcher,
    NullPrefetcher,
    Prefetcher,
    SpatioTemporalPrefetcher,
    StmsPrefetcher,
    VldpPrefetcher,
    make_prefetcher,
    prefetcher_names,
)
from .sequitur import analyze_sequence, oracle_replay
from .sim import (
    MemoryTrace,
    SimulationResult,
    TimingSimulator,
    TraceSimulator,
    simulate_multicore,
    simulate_trace,
)
from .workloads import (
    SERVER_WORKLOADS,
    WorkloadConfig,
    WorkloadSuite,
    default_suite,
    generate_trace,
    get_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "BLOCK_SIZE",
    "CacheConfig",
    "DigramPrefetcher",
    "DominoPrefetcher",
    "IsbPrefetcher",
    "MemoryTrace",
    "NullPrefetcher",
    "Prefetcher",
    "ReproError",
    "SERVER_WORKLOADS",
    "SimulationResult",
    "SpatioTemporalPrefetcher",
    "StmsPrefetcher",
    "SystemConfig",
    "TimingSimulator",
    "TraceSimulator",
    "VldpPrefetcher",
    "WorkloadConfig",
    "WorkloadSuite",
    "__version__",
    "analyze_sequence",
    "default_suite",
    "generate_trace",
    "get_workload",
    "make_prefetcher",
    "oracle_replay",
    "prefetcher_names",
    "simulate_multicore",
    "simulate_trace",
    "small_test_config",
    "workload_names",
]
