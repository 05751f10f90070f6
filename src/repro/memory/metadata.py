"""Off-chip metadata traffic ledger for temporal prefetchers.

STMS, Digram, and Domino keep their History Table and Index Table in
main memory; every table read or update is a real off-chip block
transfer (the paper's special "fetch into prefetcher storage" request).
Prefetchers report those transfers through a :class:`MetadataTraffic`
instance so the engine can produce the Fig. 15 decomposition — and so
the timing model can charge the round trips that make STMS need *two*
serialised memory accesses before the first prefetch of a stream while
Domino needs only one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MetadataTraffic:
    """Block-granularity metadata transfer counters."""

    index_reads: int = 0
    index_writes: int = 0
    history_reads: int = 0
    history_writes: int = 0

    @property
    def reads(self) -> int:
        """All metadata blocks fetched from memory."""
        return self.index_reads + self.history_reads

    @property
    def writes(self) -> int:
        """All metadata blocks written back to memory."""
        return self.index_writes + self.history_writes

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.index_reads = 0
        self.index_writes = 0
        self.history_reads = 0
        self.history_writes = 0
