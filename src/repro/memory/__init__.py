"""Memory-system substrate: caches, prefetch buffer, DRAM model.

This package provides the hardware structures the paper's evaluation
depends on: a set-associative LRU cache (the L1-D and the LLC), the
32-block prefetch buffer that sits next to the L1-D, a DRAM model with
latency and shared-bandwidth accounting, and an off-chip metadata
traffic ledger used to charge History Table / Index Table accesses
(Fig. 15).  The timing model composes the two cache levels itself and
keeps its MSHR limit in its retire loop.
"""

from .block import block_of, page_of, page_offset_of
from .cache import Cache, CacheStats
from .dram import DramModel, BandwidthLedger
from .metadata import MetadataTraffic
from .prefetch_buffer import PrefetchBuffer

__all__ = [
    "BandwidthLedger",
    "Cache",
    "CacheStats",
    "DramModel",
    "MetadataTraffic",
    "PrefetchBuffer",
    "block_of",
    "page_of",
    "page_offset_of",
]
