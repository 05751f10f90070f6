"""Figures that run the same simulation share one stored cell.

fig13 writes its degree-4 trace cells and its opportunity cells to the
store; every figure that runs one of those simulations at the sweep's
default degree must then read it back instead of re-running it.
"""

import pytest

from repro.experiments import ExperimentOptions, run_experiment
from repro.runner import Cell, ExecutionPolicy, cell_key, get_policy, set_policy

OPTIONS = ExperimentOptions(n_accesses=6000, workloads=("oltp",), seed=3)


@pytest.fixture
def fresh_store(tmp_path):
    previous = get_policy()
    set_policy(ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "store"))
    yield
    set_policy(previous)


def test_figures_share_fig13_cells(fresh_store):
    fig13 = run_experiment("fig13", OPTIONS).manifest
    assert fig13.hits == 0

    for experiment_id in ("fig01", "fig02", "fig12", "fig15"):
        manifest = run_experiment(experiment_id, OPTIONS).manifest
        assert manifest.hits == manifest.n_cells > 0, experiment_id

    fig16 = run_experiment("fig16", OPTIONS).manifest
    assert [c.label for c in fig16.cells if not c.cached] == [
        "trace:oltp:vldp+domino"]

    # fig10's deployed-size column overrides eit_rows with its default
    # value, which leaves the key: it is fig13's domino cell.
    fig10 = run_experiment("fig10", OPTIONS).manifest
    domino = cell_key(Cell(kind="trace", workload="oltp", prefetcher="domino",
                           degree=4), OPTIONS)
    assert [c.key for c in fig10.cells if c.cached] == [domino]
