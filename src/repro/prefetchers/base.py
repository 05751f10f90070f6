"""The prefetcher interface consumed by the simulators.

The engine notifies a prefetcher of the two *triggering events* the
paper defines — L1-D misses and prefetch-buffer hits — and the
prefetcher responds with prefetch candidates.  Candidates carry the id
of the active stream that produced them so the prefetch buffer can
attribute later hits/evictions back to the stream (LRU promotion,
stream-end detection, stream-replacement buffer discards).

A prefetcher also exposes:

* ``metadata`` — off-chip metadata traffic counters (zero for on-chip
  designs like VLDP/ISB-idealised);
* ``first_prefetch_round_trips`` — how many *serialised* off-chip
  metadata accesses precede the first prefetch of a new stream (2 for
  STMS/Digram, 1 for Domino, 0 for on-chip designs) — the timeliness
  property Figure 6 illustrates;
* ``take_killed_streams()`` — stream ids replaced/discarded since the
  last call, whose prefetch-buffer contents the engine must drop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..config import SystemConfig
from ..memory.metadata import MetadataTraffic

#: A prefetch candidate: (block address, issuing stream id).
Candidate = tuple[int, int]


class Prefetcher(ABC):
    """Abstract base class for all prefetchers."""

    #: Registry / display name; subclasses override.
    name: str = "base"
    #: Serialised off-chip metadata accesses before a stream's first prefetch.
    first_prefetch_round_trips: int = 0

    def __init__(self, config: SystemConfig, degree: int | None = None) -> None:
        self.config = config
        self.degree = config.prefetch_degree if degree is None else degree
        if self.degree <= 0:
            raise ValueError("prefetch degree must be positive")
        self.metadata = MetadataTraffic()
        self._killed_streams: list[int] = []

    # -- triggering events ------------------------------------------------
    @abstractmethod
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        """An L1-D demand miss (not covered by the prefetch buffer)."""

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        """A demand access hit the prefetch buffer; ``stream_id`` is the
        stream whose prefetch is being consumed."""
        return []

    # -- feedback ----------------------------------------------------------
    def on_buffer_eviction(self, block: int, stream_id: int) -> None:
        """A block was displaced from the prefetch buffer unused."""

    def take_killed_streams(self) -> list[int]:
        """Stream ids discarded since the last call (engine drops their
        buffered blocks, per Section III-B's replacement semantics)."""
        killed, self._killed_streams = self._killed_streams, []
        return killed

    def _kill_stream(self, stream_id: int) -> None:
        self._killed_streams.append(stream_id)

    # -- bookkeeping --------------------------------------------------------
    def reset_traffic(self) -> None:
        """Clear metadata counters (e.g. after warm-up)."""
        self.metadata.reset()


class NullPrefetcher(Prefetcher):
    """The paper's baseline: no data prefetcher at all."""

    name = "baseline"

    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        return []
