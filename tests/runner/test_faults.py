"""Fault injection: deterministic rolls, retry/timeout/degradation paths.

Everything here leans on the one property that makes chaos testing
usable in CI: a :class:`FaultPlan` decision depends only on
``(seed, mode, cell key, attempt)``, never on scheduler state, so the
same plan produces the same failures at ``--jobs 1`` and ``--jobs 4``.
"""

import pytest

from repro.errors import CellFailedError, ConfigError
from repro.experiments.fig11_degree1 import build_cells
from repro.faults import (FaultPlan, InjectedFault, corrupt_artifact,
                          parse_fault_spec, stable_fraction)
from repro.runner import ExecutionPolicy, ResultStore, run_cells


@pytest.fixture
def sweep(tiny_options):
    return build_cells(tiny_options, degree=1)


def statuses(manifest):
    return [(c.label, c.status, c.attempts) for c in manifest.cells]


class TestStableFraction:
    def test_in_unit_interval_and_deterministic(self):
        values = [stable_fraction(7, "crash", f"key{i}", 0) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [stable_fraction(7, "crash", f"key{i}", 0)
                          for i in range(200)]

    def test_sensitive_to_every_part(self):
        base = stable_fraction(0, "crash", "k", 0)
        assert stable_fraction(1, "crash", "k", 0) != base
        assert stable_fraction(0, "hang", "k", 0) != base
        assert stable_fraction(0, "crash", "k2", 0) != base
        assert stable_fraction(0, "crash", "k", 1) != base

    def test_roughly_uniform(self):
        hits = sum(stable_fraction("u", i) < 0.3 for i in range(2000))
        assert 450 < hits < 750  # 0.3 ± generous slack


class TestFaultPlan:
    def test_zeroed_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.active
        plan.apply("deadbeef", 0)  # must not raise

    def test_crash_attempts_fails_first_n_then_succeeds(self):
        plan = FaultPlan(crash_attempts=2)
        assert plan.should_crash("k", 0) and plan.should_crash("k", 1)
        assert not plan.should_crash("k", 2)

    def test_apply_raises_injected_fault(self):
        with pytest.raises(InjectedFault):
            FaultPlan(crash_attempts=1).apply("k", 0)

    def test_exit_degrades_to_raise_outside_pool_workers(self):
        """In-process, `exit` must not kill the interpreter."""
        with pytest.raises(InjectedFault, match="not in a pool worker"):
            FaultPlan(exit_p=1.0).apply("k", 0)

    def test_probabilities_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(crash_p=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(crash_attempts=-1)

    def test_corrupt_artifact_clobbers_file(self, tmp_path):
        target = tmp_path / "a.json"
        target.write_text('{"ok": true}')
        assert corrupt_artifact(target)
        assert target.read_bytes().startswith(b'{"schema"')
        assert not corrupt_artifact(tmp_path / "missing.json")


class TestParseSpec:
    def test_full_grammar(self):
        plan = parse_fault_spec("crash:0.3,hang:0.1,exit:0.05,corrupt:0.2,"
                                "seed:9,hang_s:2.5")
        assert plan == FaultPlan(crash_p=0.3, hang_p=0.1, exit_p=0.05,
                                 corrupt_p=0.2, seed=9, hang_s=2.5)

    def test_crash_at_n(self):
        assert parse_fault_spec("crash@2").crash_attempts == 2

    @pytest.mark.parametrize("bad", ["bogus:1", "crash", "hang@2",
                                     "crash:lots", "crash@x", "crash:2.0"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_fault_spec(bad)


@pytest.mark.usefixtures("no_backoff")
class TestRetries:
    def test_crash_at_n_retried_to_success(self, tiny_options, sweep):
        plan = FaultPlan(crash_attempts=1)
        payloads, manifest = run_cells(
            sweep, tiny_options,
            ExecutionPolicy(use_cache=False, retries=2, faults=plan))
        assert all(p is not None for p in payloads)
        assert all(c.status == "retried" and c.attempts == 2
                   for c in manifest.cells)
        assert manifest.retried == len(sweep) and manifest.failed == 0

    def test_exhausted_budget_raises_by_default(self, tiny_options, sweep):
        plan = FaultPlan(crash_attempts=3)
        with pytest.raises(CellFailedError, match="injected crash"):
            run_cells(sweep[:1], tiny_options,
                      ExecutionPolicy(use_cache=False, retries=1,
                                      faults=plan))

    def test_keep_going_degrades_to_partial_results(self, tiny_options, sweep):
        plan = FaultPlan(crash_attempts=3)
        payloads, manifest = run_cells(
            sweep, tiny_options,
            ExecutionPolicy(use_cache=False, retries=1,
                            keep_going=True, faults=plan))
        assert all(p is None for p in payloads)
        assert all(c.status == "failed" and c.attempts == 2
                   for c in manifest.cells)
        assert manifest.failed == len(sweep)
        assert not manifest.complete
        assert all("injected crash" in c.error for c in manifest.cells)


@pytest.mark.usefixtures("no_backoff")
class TestSerialParallelEquivalence:
    def test_same_payloads_and_statuses_under_crashes(self, tiny_options, sweep):
        """The acceptance criterion: `--jobs 4` == serial under injected
        worker crashes, payloads and manifest statuses alike."""
        def run(jobs):
            return run_cells(sweep, tiny_options,
                             ExecutionPolicy(jobs=jobs, use_cache=False,
                                             retries=3, keep_going=True,
                                             faults=FaultPlan(crash_p=0.4,
                                                              seed=5)))
        serial_p, serial_m = run(1)
        pool_p, pool_m = run(4)
        assert pool_p == serial_p
        assert statuses(pool_m) == statuses(serial_m)

    def test_failures_identical_across_modes(self, tiny_options, sweep):
        """Even *which* cells fail matches between serial and pool."""
        def run(jobs):
            _, m = run_cells(sweep, tiny_options,
                             ExecutionPolicy(jobs=jobs, use_cache=False,
                                             retries=0, keep_going=True,
                                             faults=FaultPlan(crash_p=0.5,
                                                              seed=3)))
            return statuses(m)
        assert run(4) == run(1)


class TestTimeouts:
    TIMEOUT = ExecutionPolicy(use_cache=False, retries=0, timeout_s=0.2,
                              keep_going=True,
                              faults=FaultPlan(hang_p=1.0, hang_s=1.0))

    def test_serial_hang_marked_timeout(self, tiny_options, sweep):
        payloads, manifest = run_cells(sweep[:2], tiny_options, self.TIMEOUT)
        assert payloads == [None, None]
        assert all(c.status == "timeout" for c in manifest.cells)

    def test_pool_watchdog_preempts_hang(self, tiny_options, sweep):
        import dataclasses
        import time
        policy = dataclasses.replace(
            self.TIMEOUT, jobs=2,
            faults=FaultPlan(hang_p=1.0, hang_s=30.0))
        start = time.monotonic()
        payloads, manifest = run_cells(sweep[:2], tiny_options, policy)
        assert time.monotonic() - start < 25.0  # did not wait out the hang
        assert payloads == [None, None]
        assert all(c.status == "timeout" for c in manifest.cells)

    def test_worker_death_detected_via_timeout(self, tiny_options, sweep):
        policy = ExecutionPolicy(jobs=2, use_cache=False, retries=0,
                                 timeout_s=1.0, keep_going=True,
                                 faults=FaultPlan(exit_p=1.0))
        payloads, manifest = run_cells(sweep[:2], tiny_options, policy)
        assert payloads == [None, None]
        assert all(c.status == "timeout" for c in manifest.cells)


class TestCorruptFault:
    def test_corrupt_artifacts_quarantined_on_next_run(self, tmp_path,
                                                       tiny_options, sweep):
        cache = tmp_path / "c"
        seeded = ExecutionPolicy(use_cache=True, cache_dir=cache,
                                 faults=FaultPlan(corrupt_p=1.0))
        first, _ = run_cells(sweep, tiny_options, seeded)
        clean = ExecutionPolicy(use_cache=True, cache_dir=cache)
        second, manifest = run_cells(sweep, tiny_options, clean)
        assert manifest.hits == 0 and manifest.misses == len(sweep)
        assert second == first
        assert ResultStore(cache).stats().n_quarantined == len(sweep)
        third, manifest3 = run_cells(sweep, tiny_options, clean)
        assert manifest3.hits == len(sweep)
        assert third == first
