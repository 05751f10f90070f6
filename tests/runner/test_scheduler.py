"""Scheduler: cache accounting, pool fan-out, serial equivalence."""

from dataclasses import replace

import pytest

from repro.experiments.fig11_degree1 import build_cells, run as run_fig11
from repro.faults import FaultPlan
from repro.runner import Cell, ExecutionPolicy, ResultStore, run_cells, set_policy
from repro.runner.cells import cell_key


@pytest.fixture
def sweep(tiny_options):
    """fig11's cell list for the tiny single-workload options."""
    return build_cells(tiny_options, degree=1)


class TestCacheAccounting:
    def test_cold_run_all_misses(self, tmp_path, tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c")
        payloads, manifest = run_cells(sweep, tiny_options, policy)
        assert manifest.misses == len(sweep) and manifest.hits == 0
        assert all(p is not None for p in payloads)

    def test_warm_run_all_hits_same_payloads(self, tmp_path, tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c")
        cold, _ = run_cells(sweep, tiny_options, policy)
        warm, manifest = run_cells(sweep, tiny_options, policy)
        assert manifest.hits == len(sweep) and manifest.misses == 0
        assert warm == cold
        assert manifest.wall_s < 1.0

    def test_corrupted_artifact_reexecutes_one_cell(self, tmp_path, tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c")
        cold, _ = run_cells(sweep, tiny_options, policy)
        store = ResultStore(tmp_path / "c")
        store.path_for(cell_key(sweep[0], tiny_options)).write_text("not json")
        warm, manifest = run_cells(sweep, tiny_options, policy)
        assert manifest.hits == len(sweep) - 1 and manifest.misses == 1
        assert warm == cold

    def test_no_cache_never_touches_disk(self, tmp_path, tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=False, cache_dir=tmp_path / "c")
        _, manifest = run_cells(sweep, tiny_options, policy)
        assert not (tmp_path / "c").exists()
        assert not manifest.cache_enabled
        assert manifest.misses == len(sweep)

    def test_manifest_serialises(self, tmp_path, tiny_options):
        cells = [Cell(kind="table1")]
        _, manifest = run_cells(cells, tiny_options,
                                ExecutionPolicy(use_cache=False))
        d = manifest.to_dict()
        assert d["cells"][0]["label"] == "table1"
        assert d["mode"] == "serial"


class TestRerunIsResume:
    """A killed sweep resumes by running again on the same cache: the
    store is the one record of finished cells."""

    def test_partial_run_then_full_list_serves_finished_cells(
            self, tmp_path, tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c")
        partial, first = run_cells(sweep[:3], tiny_options, policy)
        assert first.misses == 3
        payloads, manifest = run_cells(sweep, tiny_options,
                                       replace(policy, jobs=2))
        assert [c.cached for c in manifest.cells] == \
            [True] * 3 + [False] * (len(sweep) - 3)
        assert payloads[:3] == partial
        reference, _ = run_cells(sweep, tiny_options,
                                 ExecutionPolicy(use_cache=False))
        assert payloads == reference

    def test_failed_cells_leave_no_artifact_and_rerun(self, tmp_path,
                                                      tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c")
        crashing = replace(policy, retries=0, keep_going=True,
                           faults=FaultPlan(crash_attempts=1))
        payloads, first = run_cells(sweep, tiny_options, crashing)
        assert first.failed == len(sweep) and payloads == [None] * len(sweep)
        store = ResultStore(tmp_path / "c")
        assert not any(store.path_for(cell_key(cell, tiny_options)).exists()
                       for cell in sweep)
        payloads, manifest = run_cells(sweep, tiny_options, policy)
        assert manifest.hits == 0 and manifest.misses == len(sweep)
        assert all(p is not None for p in payloads)

    def test_cleared_cache_reexecutes_everything(self, tmp_path,
                                                 tiny_options, sweep):
        policy = ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c")
        first, _ = run_cells(sweep[:2], tiny_options, policy)
        ResultStore(tmp_path / "c").clear()
        payloads, manifest = run_cells(sweep[:2], tiny_options, policy)
        assert manifest.hits == 0 and manifest.misses == 2
        assert payloads == first


class TestParallelEquivalence:
    def test_pool_matches_serial_payloads(self, tiny_options, sweep):
        serial, m1 = run_cells(sweep, tiny_options,
                               ExecutionPolicy(jobs=1, use_cache=False))
        parallel, m2 = run_cells(sweep, tiny_options,
                                 ExecutionPolicy(jobs=2, use_cache=False))
        assert parallel == serial
        assert m1.mode == "serial"
        assert m2.mode in ("pool", "serial-fallback")

    def test_fig11_quick_tables_identical(self, tiny_options):
        """The acceptance criterion, in-process: --jobs N renders the
        very same table as --jobs 1, and a warm rerun still does."""
        set_policy(ExecutionPolicy(jobs=1, use_cache=False))
        serial = run_fig11(tiny_options)
        set_policy(ExecutionPolicy(jobs=2, use_cache=False))
        parallel = run_fig11(tiny_options)
        assert parallel.render() == serial.render()
        assert parallel.rows == serial.rows

    def test_fig11_warm_cache_identical_with_hits(self, tmp_path, tiny_options):
        set_policy(ExecutionPolicy(jobs=2, use_cache=True,
                                   cache_dir=tmp_path / "c"))
        cold = run_fig11(tiny_options)
        warm = run_fig11(tiny_options)
        assert warm.render() == cold.render()
        assert cold.manifest.hits == 0
        assert warm.manifest.hits == warm.manifest.n_cells > 0

    def test_single_pending_cell_stays_serial(self, tmp_path, tiny_options):
        """No point forking a pool for one miss."""
        cells = [Cell(kind="table1")]
        _, manifest = run_cells(cells, tiny_options,
                                ExecutionPolicy(jobs=8, use_cache=False))
        assert manifest.mode == "serial"


class TestPolicy:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(jobs=0)

    @pytest.mark.parametrize("bad", [dict(retries=-1), dict(jobs=0),
                                     dict(timeout_s=-1.0),
                                     dict(timeout_s=0.0)])
    def test_robustness_knobs_validated(self, bad):
        with pytest.raises(ValueError):
            ExecutionPolicy(**bad)

    def test_backoff_delay_deterministic_and_bounded(self):
        from repro.runner.scheduler import (RETRY_BACKOFF_MAX_S,
                                            RETRY_BACKOFF_S, _backoff_delay)
        delays = [_backoff_delay("somekey", a) for a in range(8)]
        assert delays == [_backoff_delay("somekey", a) for a in range(8)]
        for attempt, delay in enumerate(delays):
            ceiling = min(RETRY_BACKOFF_MAX_S, RETRY_BACKOFF_S * 2 ** attempt)
            assert 0.5 * ceiling <= delay < 1.5 * ceiling

    def test_set_policy_overrides(self):
        policy = set_policy(jobs=3, use_cache=False)
        assert policy.jobs == 3
        from repro.runner import get_policy
        assert get_policy() is policy
