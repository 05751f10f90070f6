"""Coverage / overprediction / accuracy metrics.

Definitions follow Section V-B of the paper:

* **covered misses** — baseline misses successfully eliminated by the
  prefetcher, i.e. demand accesses served by the prefetch buffer;
* **overpredictions** — incorrectly prefetched blocks (inserted into
  the prefetch buffer and never consumed before leaving it), normalised
  against the number of cache misses in the baseline system;
* **triggering events** — misses + prefetch hits; with the small state
  perturbation of the prefetch buffer this equals the baseline miss
  count, so it serves as the normalisation denominator.
"""

from __future__ import annotations

from dataclasses import dataclass


def safe_div(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the denominator is zero.

    The one sanctioned way to compute a ratio metric in this repo: a
    run with no triggering events, no issued prefetches, or no baseline
    misses reports 0.0 for every derived ratio instead of raising
    ``ZeroDivisionError`` mid-sweep.
    """
    return numerator / denominator if denominator else 0.0


@dataclass
class CoverageMetrics:
    """Counters from one trace-driven run."""

    accesses: int = 0
    l1_hits: int = 0
    misses: int = 0            # uncovered (demand went off-core)
    prefetch_hits: int = 0     # covered
    prefetches_issued: int = 0
    overpredictions: int = 0   # prefetched blocks never consumed

    @property
    def triggering_events(self) -> int:
        """Misses plus prefetch hits (the baseline-miss proxy)."""
        return self.misses + self.prefetch_hits

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses eliminated (0..1)."""
        return safe_div(self.prefetch_hits, self.triggering_events)

    @property
    def overprediction_ratio(self) -> float:
        """Useless prefetches normalised to baseline misses (may exceed 1)."""
        return safe_div(self.overpredictions, self.triggering_events)

    @property
    def accuracy(self) -> float:
        """Useful fraction of issued prefetches."""
        return safe_div(self.prefetch_hits, self.prefetches_issued)

    @property
    def miss_rate_reduction(self) -> float:
        """Alias of coverage, for readers thinking in miss-rate terms."""
        return self.coverage
