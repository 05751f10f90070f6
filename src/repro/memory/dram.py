"""DRAM latency and shared off-chip bandwidth model.

The paper's chip has two memory controllers delivering up to 37.5 GB/s
shared across four cores, with a 45 ns access delay.  The cycle model's
results (Fig. 14, fig06, ext01, ext02) depend on two properties of that
channel:

* every off-chip transfer — demand fill, prefetch fill, metadata read,
  metadata write — occupies the channel for ``64 B / (bytes/cycle)``;
* when the channel is oversubscribed, requests queue, so latency grows.

:class:`BandwidthLedger` is a single-server queue shared by all cores of
a chip: a request arriving at time ``t`` starts service at
``max(t, channel_free)`` and holds the channel for one block-service
time.  :class:`DramModel` adds the fixed access latency.  Neither counts
traffic by category: Fig. 15's stack comes from the trace cells'
coverage counters and :class:`~repro.memory.metadata.MetadataTraffic`,
not from this channel.
"""

from __future__ import annotations

from ..config import SystemConfig


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
    """Fixed access latency on top of the shared channel's queue."""

    def __init__(self, config: SystemConfig, ledger: BandwidthLedger | None = None) -> None:
        self.latency = config.memory_latency_cycles
        self.ledger = ledger if ledger is not None else BandwidthLedger(
            config.cycles_per_block_transfer)

    def access(self, now: float, demand: bool = True) -> float:
        """One block transfer starting at cycle ``now``: a demand fetch,
        or a prefetch-class transfer when ``demand`` is false.

        Returns the completion time: any queueing delay behind earlier
        transfers on the shared channel plus the fixed latency.
        """
        return now + self.ledger.request(now, demand) + self.latency
