"""Output pins for the cell-driven figures at a tiny size.

The rows and series below were recorded when these figures still ran
their simulations through per-figure serial loops; running them as
runner cells must reproduce every number exactly.  ext01 and ext02 run
here and nowhere else in the suite: their 20k-access per-core floor
makes them the slowest experiments at any size.
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
    "fig03": {"rows": [["oltp", 0.112, 0.36, 0.333, 0.333, 0.0],
                       ["average", 0.112, 0.36, 0.333, 0.333, 0.0]],
              "series": {}},
    "fig04": {"rows": [["oltp", 0.072, 0.009, 0.003, 0.001, 0.0],
                       ["average", 0.072, 0.009, 0.003, 0.001, 0.0]],
              "series": {}},
    "fig05": {"rows": [["oltp", "0.048/0.198"] + ["0.049/0.197"] * 4,
                       ["average", "0.048/0.198"] + ["0.049/0.197"] * 4],
              "series": {}},
    "fig06": {"rows": [["stms", 2, 360, 0.364, 66],
                       ["digram", 2, 360, 0.379, 29],
                       ["domino", 1, 180, 0.46, 50]],
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
    "ext01": {"rows": [["web_tier", 1.871, 1.051, 1.04, 1.046],
                       ["data_tier", 1.646, 1.05, 1.026, 1.037],
                       ["analytics", 1.614, 1.01, 1.0, 1.003],
                       ["consolidated", 1.471, 1.029, 1.017, 1.018],
                       ["gmean", "", 1.035, 1.021, 1.026]],
              "series": {"speedups": {
                  "stms": [1.050652637854243, 1.049549220112908,
                           1.0096695044991222, 1.0289523253680277],
                  "digram": [1.0400962433720873, 1.026134055323724,
                             1.0001009517828825, 1.017068563263388],
                  "domino": [1.0464647684250248, 1.0366288406794755,
                             1.003213601607158, 1.0183750792909307]}}},
    "ext02": {"rows": [["30 ns", 2.396, 1.054, 1.044],
                       ["45 ns", 1.665, 1.064, 1.051],
                       ["60 ns", 1.289, 1.059, 1.043],
                       ["90 ns", 0.879, 1.058, 1.047]],
              "series": {}},
}


@pytest.mark.parametrize("experiment_id", sorted(PINS))
def test_rows_and_series_pinned(experiment_id):
    result = run_experiment(experiment_id, OPTIONS)
    assert result.rows == PINS[experiment_id]["rows"]
    assert result.series == PINS[experiment_id]["series"]
    assert result.manifest is not None  # ran as runner cells
