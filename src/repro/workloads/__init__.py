"""Synthetic server workload generators (the Table II substitute).

The paper drives its evaluation with Flexus traces of nine commercial
server workloads (CloudSuite, SPECweb99, TPC-C).  Those traces are not
available, so this package synthesises memory-access traces with the
statistical properties temporal prefetchers are sensitive to — see
:mod:`repro.workloads.synthetic` for the generative model and
:mod:`repro.workloads.server` for the nine named configurations.
"""

from .analysis import WorkloadProfile, profile_trace
from .base import WorkloadConfig
from .synthetic import SyntheticWorkload, generate_trace
from .server import SERVER_WORKLOADS, workload_names, get_workload
from .mixes import STANDARD_MIXES, WorkloadMix, get_mix, mix_traces
from .suite import WorkloadSuite, default_suite

__all__ = [
    "SERVER_WORKLOADS",
    "STANDARD_MIXES",
    "WorkloadMix",
    "get_mix",
    "mix_traces",
    "SyntheticWorkload",
    "WorkloadConfig",
    "WorkloadProfile",
    "profile_trace",
    "WorkloadSuite",
    "default_suite",
    "generate_trace",
    "get_workload",
    "workload_names",
]
