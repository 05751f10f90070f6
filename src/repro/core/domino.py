"""The Domino temporal data prefetcher (the paper's contribution).

Domino logically looks up the miss history with *both* the last one and
the last two triggering events:

1. **Miss** — the missed address indexes the Enhanced Index Table.  The
   fetched super-entry's most-recent ``(address, pointer)`` entry names
   the most likely next miss, and Domino prefetches that address
   immediately — after a **single** off-chip round trip, where STMS
   needs two (Fig. 6).  The stream is left *pending*.
2. **Next triggering event** (miss or prefetch hit) — the event selects
   the pending super-entry's entry whose address field matches; that is
   the two-address lookup.  The entry's pointer locates the correct
   stream in the History Table, whose row is fetched and replayed.  If
   no entry matches, the pending stream is discarded.

Domino tracks four active streams (LRU; a miss replaces the LRU stream
and discards its buffered prefetches, a prefetch hit promotes and
advances its stream), samples metadata updates at 12.5 %, and uses the
same stream-end detection heuristic as STMS — all per Section IV-D.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..obs import DEBUG
from ..obs import names as obs_names
from ..obs import scope as obs_scope
from ..prefetchers.base import Candidate
from ..prefetchers.temporal_base import GlobalHistoryPrefetcher, _UNBOUNDED_CAPACITY
from .eit import EnhancedIndexTable

#: Telemetry scope for EIT lookup outcomes (off until obs.configure()).
_OBS = obs_scope("core.domino")


class DominoPrefetcher(GlobalHistoryPrefetcher):
    """Domino: combined one- and two-address temporal lookup via the EIT."""

    name = "domino"
    #: The EIT row itself carries the next-miss address, so the first
    #: prefetch of a stream needs only one serialised metadata access.
    first_prefetch_round_trips = 1

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 unbounded: bool = False, seed: int = 7) -> None:
        super().__init__(config, degree, unbounded=unbounded, seed=seed)
        self.eit = EnhancedIndexTable(
            rows=config.eit_rows,
            assoc=config.eit_assoc,
            entries_per_super=config.eit_entries_per_super,
            unbounded=unbounded,
        )
        #: Stream id awaiting its two-address confirmation event, if any.
        self._pending_sid: int | None = None

    # -- triggering events ------------------------------------------------
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        # The miss is first used as the second address of the pending
        # stream's two-address lookup ...
        candidates = self._confirm_pending(block)
        # ... and then as the single-address lookup that opens a new one.
        self.metadata.index_reads += 1
        super_entry = self.eit.lookup(block)
        self._record(block)
        if _OBS.enabled:
            emit_debug = _OBS.enabled_for(DEBUG)
            if super_entry is None:
                _OBS.counter(obs_names.MET_EIT_ONE_ADDR_MISS).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="one_addr",
                               block=block, hit=False)
            else:
                _OBS.counter(obs_names.MET_EIT_ONE_ADDR_HIT).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="one_addr",
                               block=block, hit=True,
                               entries=len(super_entry))
        if super_entry is None:
            return candidates
        stream, victim = self.streams.allocate()
        if victim is not None:
            self._kill_stream(victim.stream_id)
        stream.pending_entries = super_entry.snapshot()
        most_recent = super_entry.most_recent()
        if most_recent is not None:
            candidates.append((most_recent[0], stream.stream_id))
            stream.issued += 1
        self._pending_sid = stream.stream_id
        return candidates

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        candidates = self._confirm_pending(block)
        self._record(block)
        stream = self.streams.get(stream_id)
        if stream is None or stream.dead:
            return candidates
        stream.useful += 1
        self.streams.promote(stream_id)
        if stream.pending:
            # Hit on a stream that is still awaiting confirmation by a
            # *different* pending event; nothing more to issue yet.
            return candidates
        if any(sid == stream_id for _, sid in candidates):
            # This very hit confirmed the stream; the confirmation already
            # issued a full degree of prefetches.
            return candidates
        return candidates + self._issue(stream, 1)

    # -- the two-address lookup ---------------------------------------------
    def _confirm_pending(self, event_block: int) -> list[Candidate]:
        """Resolve the stream pending from the previous triggering event."""
        sid, self._pending_sid = self._pending_sid, None
        if sid is None:
            return []
        stream = self.streams.get(sid)
        if stream is None or stream.dead or not stream.pending:
            return []
        entries = stream.pending_entries or []
        stream.pending_entries = None
        pointer = None
        for address, ptr in reversed(entries):  # most recent first
            if address == event_block:
                pointer = ptr
                break
        if _OBS.enabled:
            emit_debug = _OBS.enabled_for(DEBUG)
            if pointer is None:
                _OBS.counter(obs_names.MET_EIT_TWO_ADDR_DISCARD).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="two_addr",
                               block=event_block, matched=False, stream=sid)
            else:
                _OBS.counter(obs_names.MET_EIT_TWO_ADDR_MATCH).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="two_addr",
                               block=event_block, matched=True, stream=sid,
                               pointer=pointer)
        if pointer is None:
            # The two-address lookup failed: discard the stream state but
            # leave its speculative first prefetch in the buffer — under
            # interleaved request streams the confirmation event often
            # belongs to another context, and the speculative block may
            # well be consumed when this context continues.  (The paper
            # discards buffer contents only on LRU stream *replacement*.)
            self.streams.remove(sid)
            return []
        # HT[pointer] is the tag, HT[pointer+1] the matched event; the
        # stream to replay starts right after the pair.
        self._fill_from_history(stream, pointer + 2)
        self.streams.promote(sid)
        return self._issue(stream, self.degree)

    # -- metadata recording --------------------------------------------------
    def _update_index(self, block: int, pos: int) -> None:
        """Sampled EIT update: the pair (previous event -> this event)."""
        if self._prev_event is None or self._prev_pos is None:
            return
        self.eit.update(self._prev_event, block, self._prev_pos)

    def _lookup(self, block: int) -> int | None:  # pragma: no cover
        raise NotImplementedError("Domino overrides on_miss directly")
