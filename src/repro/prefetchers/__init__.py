"""Prefetcher implementations: the paper's baselines plus Domino.

All prefetchers implement the :class:`~repro.prefetchers.base.Prefetcher`
interface consumed by the simulators:

* :mod:`repro.prefetchers.stms` — Sampled Temporal Memory Streaming
  (single-address lookup; the state of the art the paper improves on).
* :mod:`repro.prefetchers.digram` — two-address (pair) lookup.
* :mod:`repro.prefetchers.isb` — idealised PC-localised address
  correlation (the ISB comparison point).
* :mod:`repro.prefetchers.vldp` — Variable Length Delta Prefetcher
  (the spatial comparison point, and Domino's partner in Fig. 16).
* :mod:`repro.core.domino` — Domino itself (re-exported here).
* :mod:`repro.prefetchers.multi_lookup` — idealised variable-depth
  lookup used by the motivation study (Figs. 3–5).
* :mod:`repro.prefetchers.spatio_temporal` — the VLDP+Domino stack.

These are exactly the designs the experiments run; the registry holds
nothing else besides the no-prefetcher ``baseline``.
"""

from ..core.domino import DominoPrefetcher
from .base import Prefetcher, NullPrefetcher
from .digram import DigramPrefetcher
from .isb import IsbPrefetcher
from .multi_lookup import MultiLookupPrefetcher, LookupDepthAnalyzer
from .registry import PREFETCHERS, make_prefetcher, prefetcher_names
from .spatio_temporal import SpatioTemporalPrefetcher
from .stms import StmsPrefetcher
from .temporal_base import GlobalHistoryPrefetcher
from .vldp import VldpPrefetcher

__all__ = [
    "DigramPrefetcher",
    "DominoPrefetcher",
    "GlobalHistoryPrefetcher",
    "IsbPrefetcher",
    "LookupDepthAnalyzer",
    "MultiLookupPrefetcher",
    "NullPrefetcher",
    "PREFETCHERS",
    "Prefetcher",
    "SpatioTemporalPrefetcher",
    "StmsPrefetcher",
    "VldpPrefetcher",
    "make_prefetcher",
    "prefetcher_names",
]
