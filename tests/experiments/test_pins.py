"""Output pins for the trace-driven figures at a tiny size.

The rows and series below were recorded when these figures still ran
their simulations through a per-figure serial loop; running them as
runner cells must reproduce every number exactly.
"""

import pytest

from repro.experiments import ExperimentOptions, run_experiment

OPTIONS = ExperimentOptions(n_accesses=6000, workloads=("oltp",), seed=3)

PINS = {
    "fig01": {"rows": [["oltp", 0.011, 0.025, 0.015],
                       ["average", 0.011, 0.025, 0.015]],
              "series": {}},
    "fig02": {"rows": [["oltp", 3.67, 2.9, 2.56],
                       ["average", 3.67, 2.9, 2.56]],
              "series": {}},
    "fig05": {"rows": [["oltp", "0.048/0.198"] + ["0.049/0.197"] * 4,
                       ["average", "0.048/0.198"] + ["0.049/0.197"] * 4],
              "series": {}},
    "fig09": {"rows": [["oltp", 0.016, 0.019, 0.019, 0.019, 0.019]],
              "series": {}},
    "fig10": {"rows": [["oltp", 0.019, 0.019, 0.019, 0.019, 0.019]],
              "series": {}},
    "fig12": {"rows": [["oltp", 0.0, 0.625, 0.938] + [1.0] * 6],
              "series": {}},
    "fig15": {"rows": [["oltp", "0.13+0.21+1.15=1.48",
                        "0.02+0.21+1.12=1.35", "0.05+0.21+1.11=1.37"],
                       ["average", 1.48, 1.35, 1.37]],
              "series": {"total_overhead": {
                  "stms": [1.4849056603773585],
                  "digram": [1.3509433962264152],
                  "domino": [1.371320754716981]}}},
    "fig16": {"rows": [["oltp", 0.014, 0.019, 0.024, 0.812],
                       ["average", 0.014, 0.019, 0.024, ""]],
              "series": {"coverage": {
                  "vldp": [0.014339622641509434],
                  "domino": [0.018867924528301886],
                  "combo": [0.024150943396226414]}}},
}


@pytest.mark.parametrize("experiment_id", sorted(PINS))
def test_rows_and_series_pinned(experiment_id):
    result = run_experiment(experiment_id, OPTIONS)
    assert result.rows == PINS[experiment_id]["rows"]
    assert result.series == PINS[experiment_id]["series"]
