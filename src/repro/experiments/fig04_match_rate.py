"""Figure 4 — fraction of lookups that find a match, by lookup depth.

The flip side of Fig. 3: deeper lookups are more accurate but match
less often, which is why a pure pair-lookup (Digram) forfeits
opportunity and Domino falls back to a single address.
"""

from __future__ import annotations

from .common import ExperimentOptions, ExperimentResult, lookup_depth_figure


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    return lookup_depth_figure(
        options or ExperimentOptions(), "match_rate",
        experiment_id="fig04",
        title="Fraction of lookups that find a match in the history, "
              "by lookup depth",
        notes="Paper shape: match rate decreases monotonically with depth.",
    )
