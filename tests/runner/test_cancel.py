"""Cancellation through the runner: serial scope plumbing, retry
backoff interruption, trace generation, and pool polling."""

import pytest

from repro.cancel import CancelToken
from repro.errors import JobCancelled
from repro.experiments.fig11_degree1 import build_cells
from repro.runner import Cell, ExecutionPolicy, execute, run_cells
from repro.workloads.synthetic import SyntheticWorkload


@pytest.fixture
def sweep(tiny_options):
    return build_cells(tiny_options, degree=1)


class TestSerial:
    def test_uncancelled_token_matches_plain_run(self, tiny_options, sweep):
        policy = ExecutionPolicy(jobs=1, use_cache=False)
        plain, _ = run_cells(sweep, tiny_options, policy)
        token = CancelToken(check_every=256)
        metered, manifest = run_cells(sweep, tiny_options, policy,
                                      cancel=token)
        assert metered == plain
        assert manifest.failed == 0
        # Every trace-simulating cell meters its accesses (analysis
        # cells run no engine loop, so they meter nothing).
        n_trace = sum(1 for cell in sweep if cell.kind == "trace")
        assert token.progress == n_trace * tiny_options.n_accesses

    def test_precancelled_token_runs_nothing(self, tiny_options, sweep):
        token = CancelToken()
        token.cancel("client_cancel")
        with pytest.raises(JobCancelled) as exc_info:
            run_cells(sweep, tiny_options,
                      ExecutionPolicy(jobs=1, use_cache=False), cancel=token)
        assert exc_info.value.reason == "client_cancel"
        assert token.progress == 0

    def test_cancel_overrides_keep_going(self, tiny_options, sweep):
        token = CancelToken()
        token.cancel("client_cancel")
        policy = ExecutionPolicy(jobs=1, use_cache=False, keep_going=True)
        with pytest.raises(JobCancelled):
            run_cells(sweep, tiny_options, policy, cancel=token)

    def test_completed_cells_stay_in_store(self, tmp_path, tiny_options,
                                           sweep):
        """Cancel between cells: finished artifacts survive for reuse."""
        policy = ExecutionPolicy(jobs=1, use_cache=True,
                                 cache_dir=tmp_path / "c")
        n_first = tiny_options.n_accesses

        class TripwireToken(CancelToken):
            """Cancels itself once the first cell's accesses are metered."""

            __slots__ = ()

            def advance(self, n):
                super().advance(n)
                if self.progress >= n_first and not self.cancelled:
                    self.cancel("client_cancel")

        token = TripwireToken(check_every=256)
        with pytest.raises(JobCancelled):
            run_cells(sweep, tiny_options, policy, cancel=token)
        # A fresh uncancelled run over the same store serves at least
        # the first cell from cache.
        _, manifest = run_cells(sweep, tiny_options, policy)
        assert manifest.hits >= 1


class TestTraceGeneration:
    def test_cancel_lands_between_per_core_generations(self, monkeypatch,
                                                        tiny_options):
        """A multicore cell generates one trace per core before it
        simulates; a cancel after the first generation stops the cell
        before the second, with no progress metered."""
        monkeypatch.setattr(execute, "_SUITES", {})
        token = CancelToken()
        calls = []
        generate = SyntheticWorkload.generate

        def generate_then_cancel(self, n_accesses, seed=None):
            calls.append(seed)
            trace = generate(self, n_accesses, seed=seed)
            token.cancel("client_cancel")
            return trace

        monkeypatch.setattr(SyntheticWorkload, "generate",
                            generate_then_cancel)
        cell = Cell(kind="multicore", workload="oltp", prefetcher="domino",
                    config_name="timing")
        with pytest.raises(JobCancelled):
            run_cells([cell], tiny_options,
                      ExecutionPolicy(jobs=1, use_cache=False), cancel=token)
        assert len(calls) == 1
        assert token.progress == 0


class TestPool:
    def test_pool_uncancelled_token_matches_serial(self, tiny_options):
        cells = build_cells(tiny_options, degree=1) + \
            build_cells(tiny_options, degree=4)
        serial, _ = run_cells(cells, tiny_options,
                              ExecutionPolicy(jobs=1, use_cache=False))
        token = CancelToken()
        pooled, manifest = run_cells(
            cells, tiny_options, ExecutionPolicy(jobs=2, use_cache=False),
            cancel=token)
        assert pooled == serial
        assert manifest.failed == 0

    def test_pool_precancelled_token_aborts(self, tiny_options):
        cells = build_cells(tiny_options, degree=1) + \
            build_cells(tiny_options, degree=4)
        token = CancelToken()
        token.cancel("client_cancel")
        with pytest.raises(JobCancelled):
            run_cells(cells, tiny_options,
                      ExecutionPolicy(jobs=2, use_cache=False), cancel=token)
