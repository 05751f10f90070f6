"""Cooperative cancellation: token semantics and engine checkpoints.

The load-bearing guarantees: an uncancelled token changes *nothing*
(bit-identical results, full progress), a cancel lands mid-run with
strictly fewer simulated accesses than the trace, and a deadline trips
through the same checkpoint machinery.
"""

import pytest

from repro.cancel import (DEFAULT_CHECK_EVERY, REASON_DEADLINE, CancelToken,
                          cancel_scope, current_token)
from repro.errors import ConfigError, JobCancelled
from repro.prefetchers.stms import StmsPrefetcher
from repro.sim.engine import TraceSimulator, simulate_trace
from repro.sim.fastpath import build_l1_filter
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import TimingSimulator


class FakeClock:
    """A hand-cranked monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class ProgressClock:
    """A fake clock that reads simulated progress: a token on it passes
    its deadline once the engine has published ``deadline_s`` accesses,
    at whichever checkpoint comes first after that."""

    def __init__(self) -> None:
        self.token: CancelToken | None = None

    def __call__(self) -> float:
        return float(self.token.progress) if self.token is not None else 0.0


def progress_deadline(accesses: int, check_every: int = 64) -> CancelToken:
    clock = ProgressClock()
    token = CancelToken(deadline_s=accesses, check_every=check_every,
                        clock=clock)
    clock.token = token
    return token


class TestToken:
    def test_defaults(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason == ""
        assert token.progress == 0
        assert token.check_every == DEFAULT_CHECK_EVERY
        assert token.deadline_at is None
        token.raise_if_cancelled()  # no-op while uncancelled

    def test_cancel_is_first_wins(self):
        token = CancelToken()
        assert token.cancel("client_cancel")
        assert not token.cancel("too_late")
        assert token.cancelled
        assert token.reason == "client_cancel"

    def test_empty_reason_normalised(self):
        token = CancelToken()
        token.cancel("")
        assert token.reason == "cancelled"

    def test_raise_carries_reason_and_progress(self):
        token = CancelToken()
        token.advance(123)
        token.cancel("client_cancel")
        with pytest.raises(JobCancelled) as exc_info:
            token.raise_if_cancelled()
        assert exc_info.value.reason == "client_cancel"
        assert exc_info.value.progress == 123

    def test_checkpoint_publishes_then_raises(self):
        token = CancelToken()
        token.checkpoint(10)
        assert token.progress == 10
        token.cancel("x")
        with pytest.raises(JobCancelled):
            token.checkpoint(5)
        assert token.progress == 15  # progress published before the raise

    def test_advance_ignores_nonpositive(self):
        token = CancelToken()
        token.advance(0)
        token.advance(-3)
        assert token.progress == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            CancelToken(check_every=0)
        with pytest.raises(ConfigError):
            CancelToken(deadline_s=0.0)
        with pytest.raises(ConfigError):
            CancelToken(deadline_s=-1.0)

    def test_deadline_autocancels_on_observation(self):
        clock = FakeClock()
        token = CancelToken(deadline_s=5.0, clock=clock)
        assert not token.cancelled
        clock.now += 5.1
        assert token.cancelled
        assert token.reason == REASON_DEADLINE
        assert token.cancelled_at == clock.now

    def test_explicit_cancel_beats_deadline(self):
        clock = FakeClock()
        token = CancelToken(deadline_s=5.0, clock=clock)
        token.cancel("client_cancel")
        clock.now += 10.0
        assert token.cancelled
        assert token.reason == "client_cancel"

    def test_wait_returns_promptly_when_cancelled(self):
        token = CancelToken()
        token.cancel("x")
        assert token.wait(60.0)  # returns immediately, not after a minute

    def test_wait_caps_at_deadline(self):
        clock = FakeClock()
        clock.now = 100.0
        token = CancelToken(deadline_s=1e-6, clock=clock)
        clock.now += 1.0
        assert token.wait(60.0)
        assert token.reason == REASON_DEADLINE

    def test_cancelled_at_records_first_cancel(self):
        clock = FakeClock()
        token = CancelToken(clock=clock)
        assert token.cancelled_at == 0.0
        clock.now = 200.0
        token.cancel("x")
        clock.now = 300.0
        token.cancel("y")
        assert token.cancelled_at == 200.0


class TestScope:
    def test_scope_installs_and_restores(self):
        token = CancelToken()
        assert current_token() is None
        with cancel_scope(token):
            assert current_token() is token
        assert current_token() is None

    def test_none_scope_does_not_mask_outer(self):
        outer = CancelToken()
        with cancel_scope(outer):
            with cancel_scope(None):
                assert current_token() is outer

    def test_nested_scopes_restore_outer(self):
        outer, inner = CancelToken(), CancelToken()
        with cancel_scope(outer):
            with cancel_scope(inner):
                assert current_token() is inner
            assert current_token() is outer


class TestEngineCheckpoints:
    def test_uncancelled_run_is_bit_identical(self, config, tiny_trace):
        baseline = simulate_trace(tiny_trace, config,
                                  StmsPrefetcher(config))
        token = CancelToken(check_every=64)
        with cancel_scope(token):
            instrumented = simulate_trace(tiny_trace, config,
                                          StmsPrefetcher(config))
        assert instrumented.metrics == baseline.metrics
        assert token.progress == len(tiny_trace)
        assert not token.cancelled

    def test_precancelled_token_stops_before_work(self, config, tiny_trace):
        token = CancelToken()
        token.cancel("client_cancel")
        with cancel_scope(token), pytest.raises(JobCancelled):
            simulate_trace(tiny_trace, config, StmsPrefetcher(config))
        assert token.progress == 0

    def test_midrun_cancel_stops_with_partial_progress(self, config,
                                                       tiny_trace):
        class TripwirePrefetcher(StmsPrefetcher):
            """Cancels its own token partway through the trace."""

            def __init__(self, cfg, token, after):
                super().__init__(cfg)
                self.token = token
                self.after = after
                self.seen = 0

            def on_miss(self, pc, block):
                self.seen += 1
                if self.seen == self.after:
                    self.token.cancel("client_cancel")
                return super().on_miss(pc, block)

        token = CancelToken(check_every=64)
        prefetcher = TripwirePrefetcher(config, token, after=10)
        with cancel_scope(token), pytest.raises(JobCancelled) as exc_info:
            simulate_trace(tiny_trace, config, prefetcher)
        assert exc_info.value.reason == "client_cancel"
        assert 0 < token.progress < len(tiny_trace)
        # Bounded staleness: the cancel landed within one check window
        # of being requested (the tripwire fired within `after` misses,
        # i.e. at most `after` accesses into some window).
        assert token.progress <= ((10 // 64) + 2) * 64

    def test_deadline_trips_at_a_checkpoint(self, config, tiny_trace):
        clock = FakeClock()
        token = CancelToken(deadline_s=5.0, check_every=64, clock=clock)
        clock.now += 6.0  # already past before the run starts measuring
        with cancel_scope(token), pytest.raises(JobCancelled) as exc_info:
            simulate_trace(tiny_trace, config, StmsPrefetcher(config))
        assert exc_info.value.reason == REASON_DEADLINE

    def test_replay_meters_and_matches_full_run(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        baseline = TraceSimulator(
            config, StmsPrefetcher(config)).run_filtered(filt)
        token = CancelToken(check_every=64)
        with cancel_scope(token):
            replayed = TraceSimulator(
                config, StmsPrefetcher(config)).run_filtered(filt)
        assert replayed.metrics == baseline.metrics
        # Replay meters the *original* access count, not just misses —
        # reported progress must not depend on which path served the run.
        assert token.progress == len(tiny_trace)

    def test_replay_cancel_stops_midway(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)

        class TripwirePrefetcher(StmsPrefetcher):
            def __init__(self, cfg, token):
                super().__init__(cfg)
                self.token = token
                self.seen = 0

            def on_miss(self, pc, block):
                self.seen += 1
                if self.seen == 5:
                    self.token.cancel("client_cancel")
                return super().on_miss(pc, block)

        token = CancelToken(check_every=64)
        with cancel_scope(token), pytest.raises(JobCancelled):
            TraceSimulator(config,
                           TripwirePrefetcher(config, token)).run_filtered(filt)
        assert 0 < token.progress < len(tiny_trace)

    def test_filter_build_checks_without_metering(self, config, tiny_trace):
        token = CancelToken(check_every=64)
        with cancel_scope(token):
            build_l1_filter(tiny_trace, config)
        # The build walks the trace but must not advance progress: the
        # replay re-meters those accesses, and counting them twice would
        # overstate one logical run's progress.
        assert token.progress == 0

    def test_filter_build_honours_cancel(self, config, tiny_trace):
        token = CancelToken(check_every=64)
        token.cancel("client_cancel")
        with cancel_scope(token), pytest.raises(JobCancelled):
            build_l1_filter(tiny_trace, config)


class TestTimingCheckpoints:
    """The cycle model checkpoints like the trace engine: every core
    against its own access index, metering the accesses it simulated."""

    @pytest.fixture
    def core_traces(self, config, tiny_trace):
        step = len(tiny_trace) // config.n_cores
        return [tiny_trace.slice(core * step, (core + 1) * step)
                for core in range(config.n_cores)]

    def test_uncancelled_timing_run_is_bit_identical(self, config, tiny_trace):
        baseline = TimingSimulator(config, StmsPrefetcher(config)).run(
            tiny_trace, warmup=len(tiny_trace) // 2)
        token = CancelToken(check_every=64)
        with cancel_scope(token):
            metered = TimingSimulator(config, StmsPrefetcher(config)).run(
                tiny_trace, warmup=len(tiny_trace) // 2)
        assert metered == baseline
        assert token.progress == len(tiny_trace)

    def test_uncancelled_multicore_meters_every_core(self, config,
                                                     core_traces):
        baseline = simulate_multicore(core_traces, config, "stms")
        token = CancelToken(check_every=64)
        with cancel_scope(token):
            metered = simulate_multicore(core_traces, config, "stms")
        assert metered == baseline
        assert token.progress == sum(len(t) for t in core_traces)

    def test_timing_run_cancels_midway(self, config, tiny_trace):
        token = progress_deadline(len(tiny_trace) // 3)
        with cancel_scope(token), pytest.raises(JobCancelled) as exc_info:
            TimingSimulator(config, StmsPrefetcher(config)).run(tiny_trace)
        assert exc_info.value.reason == REASON_DEADLINE
        assert 0 < token.progress < len(tiny_trace)

    def test_multicore_cancels_midway(self, config, core_traces):
        total = sum(len(t) for t in core_traces)
        token = progress_deadline(total // 3)
        with cancel_scope(token), pytest.raises(JobCancelled) as exc_info:
            simulate_multicore(core_traces, config, "stms")
        assert exc_info.value.reason == REASON_DEADLINE
        assert 0 < token.progress < total
        # Bounded staleness: each of the cores overshoots the deadline
        # by less than one check window.
        assert token.progress <= total // 3 + config.n_cores * 64
