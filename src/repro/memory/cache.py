"""Set-associative LRU cache model (the L1-D and the LLC).

The model tracks only *presence* (tags), not data, which is all a
prefetching study needs.  Each set is a small ``OrderedDict`` kept in
LRU order, oldest first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fills: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """LRU set-associative cache over block addresses.

    ``access(block)`` returns True on a hit and allocates on a miss
    (write-allocate; this study has no dirty-data concerns).  ``probe``
    checks presence without side effects.  Prefetches never fill a
    cache: they wait in the prefetch buffer until a demand access
    allocates the block.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.ways = config.ways
        self._set_mask = self.n_sets - 1
        self._power_of_two = (self.n_sets & (self.n_sets - 1)) == 0
        self._sets: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _index(self, block: int) -> int:
        if self._power_of_two:
            return block & self._set_mask
        return block % self.n_sets

    def access(self, block: int) -> bool:
        """Look up ``block``; allocate it on a miss.  Returns hit?"""
        self.stats.accesses += 1
        line_set = self._sets[self._index(block)]
        if block in line_set:
            line_set.move_to_end(block)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._insert(line_set, block)
        return False

    def access_traced(self, block: int) -> tuple[bool, int | None]:
        """:meth:`access` that also reports the evicted victim.

        Same counters, same replacement behaviour — the only difference
        is the return type: ``(hit, evicted_block_or_None)``.  Used by
        the L1 fast path (:mod:`repro.sim.fastpath`), which must record
        the eviction sequence to replay residency without the cache.
        """
        self.stats.accesses += 1
        line_set = self._sets[self._index(block)]
        if block in line_set:
            line_set.move_to_end(block)
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        return False, self._insert(line_set, block)

    def probe(self, block: int) -> bool:
        """Presence check without replacement-state or counter updates."""
        return block in self._sets[self._index(block)]

    def _insert(self, line_set: OrderedDict[int, None], block: int) -> int | None:
        victim = None
        if len(line_set) >= self.ways:
            victim, _ = line_set.popitem(last=False)
            self.stats.evictions += 1
        line_set[block] = None
        self.stats.fills += 1
        return victim

    def __contains__(self, block: int) -> bool:
        return self.probe(block)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
