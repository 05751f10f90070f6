"""Spatio-temporal stack: Domino on top of VLDP (Fig. 16).

Section V-E stacks the two orthogonal techniques: VLDP captures spatial
(within-page delta) misses, including compulsory ones Domino can never
predict, while Domino replays previously observed global sequences that
cross pages.  "Domino trains and prefetches on misses that VLDP cannot
capture": in the stacked system a miss — by definition not covered by
either component — trains both, a VLDP prefetch hit trains only VLDP
(it was never a miss of the VLDP-equipped system, so Domino's history
must not contain it), and a Domino prefetch hit *would* have been a
miss of a VLDP-only system, so it trains both.

Stream ids of the two components are disambiguated by parity so buffer
feedback can be routed back to its owner.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..core.domino import DominoPrefetcher
from .base import Candidate, Prefetcher
from .vldp import VldpPrefetcher


class SpatioTemporalPrefetcher(Prefetcher):
    """VLDP + Domino operating as one prefetcher."""

    name = "vldp+domino"
    #: Worst case for a new stream is Domino's single metadata round trip.
    first_prefetch_round_trips = 1

    _VLDP = 0
    _DOMINO = 1

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 unbounded_domino: bool = False, seed: int = 7) -> None:
        super().__init__(config, degree)
        self.vldp = VldpPrefetcher(config, degree=self.degree)
        self.domino = DominoPrefetcher(config, degree=self.degree,
                                       unbounded=unbounded_domino, seed=seed)
        # Metadata traffic is Domino's (VLDP's tables are on chip).
        self.metadata = self.domino.metadata
        #: Prefetch-buffer hits attributed to each component.
        self.component_hits = {"vldp": 0, "domino": 0}

    # -- stream id namespacing --------------------------------------------
    def _tag(self, candidates: list[Candidate], owner: int) -> list[Candidate]:
        return [(block, sid * 2 + owner) for block, sid in candidates]

    @staticmethod
    def _owner_of(stream_id: int) -> int:
        return stream_id & 1

    @staticmethod
    def _inner_sid(stream_id: int) -> int:
        return stream_id >> 1

    # -- triggering events --------------------------------------------------
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        spatial = self._tag(self.vldp.on_miss(pc, block), self._VLDP)
        temporal = self._tag(self.domino.on_miss(pc, block), self._DOMINO)
        self._collect_kills()
        return spatial + temporal

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        owner = self._owner_of(stream_id)
        inner = self._inner_sid(stream_id)
        if owner == self._VLDP:
            self.component_hits["vldp"] += 1
            out = self._tag(self.vldp.on_prefetch_hit(pc, block, inner), self._VLDP)
        else:
            self.component_hits["domino"] += 1
            # A Domino hit was a miss of the hypothetical VLDP-only system:
            # VLDP trains on it (and may prefetch from it) too.
            spatial = self._tag(self.vldp.on_miss(pc, block), self._VLDP)
            temporal = self._tag(self.domino.on_prefetch_hit(pc, block, inner),
                                 self._DOMINO)
            out = spatial + temporal
        self._collect_kills()
        return out

    def on_buffer_eviction(self, block: int, stream_id: int) -> None:
        owner = self._owner_of(stream_id)
        inner = self._inner_sid(stream_id)
        if owner == self._VLDP:
            self.vldp.on_buffer_eviction(block, inner)
        else:
            self.domino.on_buffer_eviction(block, inner)

    def _collect_kills(self) -> None:
        for sid in self.vldp.take_killed_streams():
            self._kill_stream(sid * 2 + self._VLDP)
        for sid in self.domino.take_killed_streams():
            self._kill_stream(sid * 2 + self._DOMINO)
