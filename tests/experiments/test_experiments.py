"""Experiment drivers: every registered experiment runs and produces a
well-formed table at tiny sizes; a few shape assertions on the cheap ones."""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import repro
import repro.experiments
from repro.errors import UnknownExperimentError
from repro.experiments import (ExperimentOptions, ExperimentResult,
                               experiment_ids, run_experiment)
from repro.prefetchers.registry import prefetcher_names
from repro.runner import RunManifest

TINY = ExperimentOptions(n_accesses=12_000, workloads=("oltp",), seed=7)

#: Experiments cheap enough to run on every test invocation.
CHEAP = ["table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig06",
         "fig12", "fig15", "fig16"]
#: Heavier sweeps, still run but on a single tiny workload.
HEAVY = ["fig05", "fig09", "fig10", "fig11", "fig13", "fig14"]
#: The slowest sweeps (a 20k-access per-core floor) run once, in
#: test_pins.py, which also checks their manifest.
PINNED_ONLY = ["ext01", "ext02"]


@pytest.mark.parametrize("experiment_id", CHEAP + HEAVY)
def test_experiment_runs_and_renders(experiment_id):
    result = run_experiment(experiment_id, TINY)
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{experiment_id} produced no rows"
    # One experiment path: everything but the static table2 runs cells.
    assert (result.manifest is None) == (experiment_id == "table2")
    text = result.render()
    assert result.title in text
    for header in result.headers:
        assert header in text
    widths = {len(row) for row in result.rows}
    assert widths == {len(result.headers)}


def test_registry_complete():
    ids = experiment_ids()
    assert "fig11" in ids and "table1" in ids
    assert len(ids) == 18
    assert "ext01" in ids and "ext02" in ids
    assert sorted(CHEAP + HEAVY + PINNED_ONLY) == sorted(ids)


def test_drivers_import_no_simulation_engine():
    """One experiment path: simulations and analyses run as runner cells."""
    engines = {"TraceSimulator", "TimingSimulator", "simulate_multicore",
               "analyze_sequence", "LookupDepthAnalyzer", "build_l1_filter",
               "WorkloadSuite"}
    for path in Path(repro.experiments.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert not imported & engines, path.name


def _calls_by_function(path: Path, root: Path):
    """``(qualified function, ast.Call)`` for every call in ``path``;
    the function is the innermost ``def`` around the call."""
    module = path.relative_to(root).with_suffix("").as_posix()
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.scope = [module]

        def visit_scope(self, node) -> None:
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

        def visit_Call(self, node: ast.Call) -> None:
            found.append((".".join(self.scope), node))
            self.generic_visit(node)

    Visitor().visit(ast.parse(path.read_text()))
    return found


def test_event_path_exists_once():
    """One simulation core: the trigger -> buffer -> prefetcher -> issue
    sequence is called from one function under ``repro.sim``, and only
    the filter build's scalar kernel simulates an L1 ``Cache``."""
    src = Path(repro.__file__).parent
    path_calls = ("on_miss", "on_prefetch_hit", "take_killed_streams",
                  "on_buffer_eviction", "insert")
    callers = defaultdict(set)
    l1_caches = set()
    for path in sorted(src.rglob("*.py")):
        in_sim = path.parent == src / "sim"
        for function, call in _calls_by_function(path, src):
            func = call.func
            if in_sim and isinstance(func, ast.Attribute) and func.attr in path_calls:
                callers[func.attr].add(function)
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "Cache" and any(
                    isinstance(node, ast.Attribute) and node.attr == "l1d"
                    for arg in call.args for node in ast.walk(arg)):
                l1_caches.add(function)
    assert {name: len(callers[name]) for name in path_calls} == dict.fromkeys(
        path_calls, 1), dict(callers)
    assert l1_caches == {"sim/fastpath._build_arrays_scalar"}


def test_cells_use_exactly_the_registered_prefetchers(monkeypatch):
    """The registry holds what the experiments run and nothing more."""
    cells = []

    def record(batch, options, policy=None):
        cells.extend(batch)
        return [None] * len(batch), RunManifest()

    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "run_cells"):
            monkeypatch.setattr(module, "run_cells", record)
    for experiment_id in experiment_ids():
        run_experiment(experiment_id, ExperimentOptions())
    used = {cell.prefetcher for cell in cells if cell.prefetcher}
    assert used == set(prefetcher_names())


def test_unknown_experiment():
    with pytest.raises(UnknownExperimentError):
        run_experiment("fig99")


def test_fig03_accuracy_improves_with_depth():
    result = run_experiment("fig03", TINY)
    row = result.rows[0]
    assert row[2] >= row[1]  # depth2 >= depth1 accuracy


def test_fig04_match_rate_decreases_with_depth():
    result = run_experiment("fig04", TINY)
    row = result.rows[0]
    assert row[1] >= row[-1]


def test_fig09_monotone_coverage_with_ht_size():
    result = run_experiment("fig09", TINY)
    row = result.rows[0][1:]
    assert row[-1] >= row[0] - 0.02


def test_table1_reflects_paper_parameters():
    result = run_experiment("table1", None)
    text = result.render()
    assert "4 cores" in text
    assert "45 ns" in text
    assert "37.5 GB/s" in text


def test_column_extraction():
    result = run_experiment("fig01", TINY)
    coverages = result.column("stms_coverage")
    assert len(coverages) == len(result.rows)


def test_options_quick_profile():
    quick = ExperimentOptions.quick()
    assert quick.n_accesses < ExperimentOptions().n_accesses
    assert len(quick.workloads) == 3


def test_options_scaled():
    options = ExperimentOptions().scaled(degree=2)
    assert options.degree == 2
    assert options.warmup == options.n_accesses // 2
