"""Figures that run the same simulation share one stored cell.

fig13 writes its degree-4 trace cells and its opportunity cells to the
store; every figure that runs one of those simulations at the sweep's
default degree must then read it back instead of re-running it.  The
same holds for fig03/fig04's lookup-depth cells and for the multicore
cells fig14 shares with ext02.
"""

from dataclasses import replace

import pytest

from repro.experiments import ExperimentOptions, run_experiment
from repro.faults import FaultPlan
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


def test_fig04_reads_fig03_cells(fresh_store):
    assert run_experiment("fig03", OPTIONS).manifest.hits == 0
    fig04 = run_experiment("fig04", OPTIONS).manifest
    assert fig04.hits == fig04.n_cells > 0


def test_ext02_reads_fig14_cells(fresh_store):
    """ext02's 45 ns point is the timing config's own latency, so its
    three cells are fig14's, and nothing else of ext02 is."""
    run_experiment("fig14", OPTIONS)
    # Every cell ext02 would execute crashes at once instead: the store
    # hits are all this test needs, and the simulations cost seconds.
    set_policy(replace(get_policy(), keep_going=True,
                       faults=FaultPlan(crash_attempts=1)))
    ext02 = run_experiment("ext02", OPTIONS).manifest
    fig14_cells = {cell_key(Cell(kind="multicore", workload="oltp",
                                 prefetcher=name, config_name="timing"), OPTIONS)
                   for name in ("baseline", "stms", "domino")}
    assert {c.key for c in ext02.cells if c.cached} == fig14_cells
    assert ext02.failed == ext02.n_cells - 3
