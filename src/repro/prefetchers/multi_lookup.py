"""The motivation study's idealised variable-depth lookup (Figs. 3–5).

Section II reduces temporal prefetching to "identify the next miss from
the previously observed miss sequence" and studies, as a function of the
number of addresses a lookup matches:

* Fig. 3 — P(correct next-miss prediction | a match was found);
* Fig. 4 — P(a match is found);
* Fig. 5 — coverage/overpredictions of a prefetcher that tries an
  N-address match first and recursively falls back to fewer addresses.

Two classes implement this:

* :class:`LookupDepthAnalyzer` — an offline analysis over a miss
  sequence producing the Fig. 3/4 statistics for every depth at once.
* :class:`MultiLookupPrefetcher` — an idealised (infinite on-chip
  metadata) prefetcher usable in the trace engine; ``depth=1``
  approximates idealised STMS, ``depth=2`` idealised Digram-with-
  fallback, matching the paper's "picks the match with the largest
  number of addresses" semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..config import SystemConfig
from ..core.stream import StreamTable
from .base import Candidate, Prefetcher


@dataclass
class DepthStats:
    """Lookup statistics for one match depth (Fig. 3/4 rows)."""

    depth: int
    attempts: int = 0
    matches: int = 0
    correct: int = 0

    @property
    def match_rate(self) -> float:
        """Fig. 4: fraction of lookups that find a match."""
        return self.matches / self.attempts if self.attempts else 0.0

    @property
    def accuracy_given_match(self) -> float:
        """Fig. 3: fraction of matching lookups whose prediction is right."""
        return self.correct / self.matches if self.matches else 0.0


class LookupDepthAnalyzer:
    """Offline Fig. 3/4 analysis over a triggering-event sequence."""

    def __init__(self, max_depth: int = 5) -> None:
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self.stats = [DepthStats(depth=n) for n in range(1, max_depth + 1)]

    def analyze(self, events: list[int]) -> list[DepthStats]:
        """Process a miss sequence and return per-depth statistics."""
        indexes: list[dict[tuple[int, ...], int]] = [
            {} for _ in range(self.max_depth)
        ]
        pending: list[int | None] = [None] * self.max_depth
        n = len(events)
        for i, event in enumerate(events):
            # Score the predictions made at the previous event.
            for d in range(self.max_depth):
                if pending[d] is not None:
                    if pending[d] == event:
                        self.stats[d].correct += 1
                    pending[d] = None
            # Look up every depth with the suffix ending at this event.
            for d in range(self.max_depth):
                length = d + 1
                if i + 1 < length:
                    continue
                key = tuple(events[i - length + 1: i + 1])
                self.stats[d].attempts += 1
                pos = indexes[d].get(key)
                if pos is not None:
                    self.stats[d].matches += 1
                    if pos + 1 < n:
                        pending[d] = events[pos + 1]
                indexes[d][key] = i
        return self.stats


class MultiLookupPrefetcher(Prefetcher):
    """Idealised temporal prefetcher with recursive N..1-address lookup."""

    name = "multi_lookup"
    first_prefetch_round_trips = 0  # idealised metadata

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 depth: int = 2) -> None:
        super().__init__(config, degree)
        if depth <= 0:
            raise ValueError("lookup depth must be positive")
        self.depth = depth
        self._history: list[int] = []
        self._indexes: list[dict[tuple[int, ...], int]] = [{} for _ in range(depth)]
        self._recent: deque[int] = deque(maxlen=depth)
        self.streams = StreamTable(config.active_streams)
        #: stream id -> history cursor for idealised extension.
        self._cursors: dict[int, int] = {}

    def _find_match(self, block: int) -> int | None:
        """Deepest-first recursive lookup ending at the current event."""
        suffix = list(self._recent) + [block]
        for length in range(min(self.depth, len(suffix)), 0, -1):
            key = tuple(suffix[-length:])
            pos = self._indexes[length - 1].get(key)
            if pos is not None:
                return pos
        return None

    def _train(self, block: int) -> None:
        self._recent.append(block)
        pos = len(self._history)
        self._history.append(block)
        suffix = list(self._recent)
        for length in range(1, min(self.depth, len(suffix)) + 1):
            self._indexes[length - 1][tuple(suffix[-length:])] = pos

    def _issue(self, stream_id: int, count: int) -> list[Candidate]:
        cursor = self._cursors.get(stream_id)
        if cursor is None:
            return []
        out: list[Candidate] = []
        while count > 0 and cursor < len(self._history):
            out.append((self._history[cursor], stream_id))
            cursor += 1
            count -= 1
        self._cursors[stream_id] = cursor
        return out

    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        pos = self._find_match(block)
        self._train(block)
        if pos is None:
            return []
        stream, victim = self.streams.allocate()
        if victim is not None:
            self._kill_stream(victim.stream_id)
            self._cursors.pop(victim.stream_id, None)
        self._cursors[stream.stream_id] = pos + 1
        return self._issue(stream.stream_id, self.degree)

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        self._train(block)
        stream = self.streams.get(stream_id)
        if stream is None or stream.dead:
            return []
        self.streams.promote(stream_id)
        return self._issue(stream_id, 1)
