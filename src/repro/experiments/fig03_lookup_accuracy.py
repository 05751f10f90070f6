"""Figure 3 — P(correct next-miss | match) vs number of matched addresses.

Lookups that match more trailing addresses predict the next miss more
accurately; beyond two or three the improvement is marginal — the
paper's justification for stopping at two.
"""

from __future__ import annotations

from .common import ExperimentOptions, ExperimentResult, lookup_depth_figure


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    return lookup_depth_figure(
        options or ExperimentOptions(), "accuracy_given_match",
        experiment_id="fig03",
        title="Fraction of matching lookups that predict the next miss "
              "correctly, by lookup depth",
        notes=("Paper shape: accuracy rises steeply from one to two "
               "addresses, then flattens beyond three."),
    )
