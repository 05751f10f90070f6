"""Off-chip bandwidth decomposition (Fig. 15).

Fig. 15 stacks, per prefetcher, the off-chip traffic *overhead* over the
no-prefetcher baseline, split into incorrect prefetches, metadata
updates, and metadata reads — all normalised to the baseline's demand
traffic (one block per baseline miss).
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import safe_div


@dataclass
class BandwidthBreakdown:
    """Traffic overhead of one prefetcher run, in blocks."""

    baseline_blocks: int
    incorrect_prefetch_blocks: int
    metadata_read_blocks: int
    metadata_write_blocks: int

    def _ratio(self, blocks: int) -> float:
        return safe_div(blocks, self.baseline_blocks)

    @property
    def incorrect_prefetch_overhead(self) -> float:
        """Incorrect-prefetch traffic / baseline demand traffic."""
        return self._ratio(self.incorrect_prefetch_blocks)

    @property
    def metadata_read_overhead(self) -> float:
        return self._ratio(self.metadata_read_blocks)

    @property
    def metadata_write_overhead(self) -> float:
        return self._ratio(self.metadata_write_blocks)

    @property
    def total_overhead(self) -> float:
        """The full Fig. 15 stack height."""
        return (self.incorrect_prefetch_overhead
                + self.metadata_read_overhead
                + self.metadata_write_overhead)
