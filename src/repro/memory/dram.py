"""DRAM latency and shared off-chip bandwidth model.

The paper's chip has two memory controllers delivering up to 37.5 GB/s
shared across four cores, with a 45 ns access delay.  The timing results
(Figs. 14 and 15) depend on two properties of that channel:

* every off-chip transfer — demand fill, prefetch fill, metadata read,
  metadata write — occupies the channel for ``64 B / (bytes/cycle)``;
* when the channel is oversubscribed, requests queue, so latency grows.

:class:`BandwidthLedger` is a single-server queue shared by all cores of
a chip: a request arriving at time ``t`` starts service at
``max(t, channel_free)`` and holds the channel for one block-service
time.  :class:`DramModel` layers the fixed access latency on top and
keeps traffic counters by category for the Fig. 15 decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BLOCK_SIZE, SystemConfig


@dataclass
class TrafficCounters:
    """Block transfers by category (the Fig. 15 stack)."""

    demand: int = 0
    prefetch_useful: int = 0
    prefetch_useless: int = 0
    metadata_read: int = 0
    metadata_write: int = 0

    @property
    def total(self) -> int:
        return (self.demand + self.prefetch_useful + self.prefetch_useless
                + self.metadata_read + self.metadata_write)

    @property
    def total_bytes(self) -> int:
        return self.total * BLOCK_SIZE


class BandwidthLedger:
    """Two-priority queue model of the shared off-chip channel.

    Real memory controllers prioritise demand fetches over prefetch and
    metadata traffic, so a saturating prefetcher degrades its own
    traffic first.  The model approximates that with two views of one
    server: *demand* requests queue only behind other demand requests,
    while *prefetch-class* requests (prefetches, metadata reads/writes)
    queue behind everything.  ``backlog`` exposes how far the channel
    is running ahead of ``now`` so the prefetcher can drop requests
    under saturation instead of queueing unboundedly.
    """

    def __init__(self, cycles_per_block: float) -> None:
        if cycles_per_block <= 0:
            raise ValueError("cycles_per_block must be positive")
        self.cycles_per_block = cycles_per_block
        self._demand_free = 0.0
        self._channel_free = 0.0
        self.transfers = 0
        self.busy_cycles = 0.0

    def request(self, now: float, demand: bool = True) -> float:
        """Schedule one block transfer arriving at ``now``.

        Returns the queueing delay (cycles the request waited before the
        channel picked it up).  The caller adds its own fixed latency.
        """
        if demand:
            start = self._demand_free if self._demand_free > now else now
            self._demand_free = start + self.cycles_per_block
            # Demand occupancy also delays the prefetch class.
            if self._channel_free < self._demand_free:
                self._channel_free = self._demand_free
        else:
            start = self._channel_free if self._channel_free > now else now
            self._channel_free = start + self.cycles_per_block
        self.transfers += 1
        self.busy_cycles += self.cycles_per_block
        return start - now

    def backlog(self, now: float) -> float:
        """Cycles of queued prefetch-class work ahead of ``now``."""
        return max(0.0, self._channel_free - now)

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of ``elapsed_cycles`` the channel was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)


class DramModel:
    """Latency + bandwidth + per-category traffic accounting."""

    #: Traffic categories accepted by :meth:`access`.
    CATEGORIES = ("demand", "prefetch_useful", "prefetch_useless",
                  "metadata_read", "metadata_write")

    def __init__(self, config: SystemConfig, ledger: BandwidthLedger | None = None) -> None:
        self.config = config
        self.latency = config.memory_latency_cycles
        self.ledger = ledger if ledger is not None else BandwidthLedger(
            config.cycles_per_block_transfer)
        self.traffic = TrafficCounters()

    def access(self, now: float, category: str = "demand") -> float:
        """One block transfer starting at cycle ``now``.

        Returns the completion time: fixed latency plus any queueing
        delay behind earlier transfers on the shared channel.
        """
        if category not in self.CATEGORIES:
            raise ValueError(f"unknown traffic category {category!r}")
        queue_delay = self.ledger.request(now, demand=(category == "demand"))
        setattr(self.traffic, category, getattr(self.traffic, category) + 1)
        return now + queue_delay + self.latency

