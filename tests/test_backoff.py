"""The shared deterministic backoff helper (repro.backoff)."""

import pytest

from repro.backoff import backoff_delay, jittered, next_delays
from repro.errors import ConfigError, ReproError


class TestBackoffDelay:
    def test_deterministic(self):
        a = [backoff_delay("key", n, base_s=0.1, max_s=2.0) for n in range(6)]
        b = [backoff_delay("key", n, base_s=0.1, max_s=2.0) for n in range(6)]
        assert a == b

    def test_exponential_envelope(self):
        for attempt in range(8):
            delay = backoff_delay("cell", attempt, base_s=0.05, max_s=100.0)
            base = 0.05 * (2 ** attempt)
            assert 0.5 * base <= delay < 1.5 * base

    def test_cap_applies_before_jitter(self):
        # Worst case is 1.5 * max_s, never 1.5 * (uncapped base).
        for attempt in range(20):
            delay = backoff_delay("cell", attempt, base_s=1.0, max_s=2.0)
            assert delay < 1.5 * 2.0

    def test_zero_base_is_zero_delay(self):
        assert backoff_delay("k", 3, base_s=0.0, max_s=5.0) == 0.0

    def test_huge_attempt_does_not_overflow(self):
        delay = backoff_delay("k", 10_000, base_s=0.1, max_s=2.0)
        assert 1.0 <= delay < 3.0  # capped at max_s, jittered [0.5, 1.5)

    def test_distinct_keys_decorrelate(self):
        delays = {backoff_delay(f"key{i}", 0, base_s=1.0, max_s=10.0)
                  for i in range(16)}
        assert len(delays) == 16

    def test_salt_decorrelates_consumers(self):
        retry = backoff_delay("tenant-a", 2, base_s=0.1, max_s=2.0)
        shed = backoff_delay("tenant-a", 2, base_s=0.1, max_s=2.0,
                             salt="serve.shed")
        assert retry != shed

    @pytest.mark.parametrize("kwargs", [
        dict(base_s=-0.1, max_s=1.0),
        dict(base_s=0.1, max_s=-1.0),
    ])
    def test_negative_delays_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            backoff_delay("k", 0, **kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ReproError):
            backoff_delay("k", -1, base_s=0.1, max_s=1.0)


class TestHelpers:
    def test_jittered_range(self):
        for attempt in range(32):
            value = jittered(2.0, "key", attempt)
            assert 1.0 <= value < 3.0

    def test_next_delays_matches_pointwise(self):
        schedule = next_delays("cell", 5, base_s=0.05, max_s=2.0)
        assert schedule == [backoff_delay("cell", n, base_s=0.05, max_s=2.0)
                            for n in range(5)]

    def test_zero_retries_is_an_empty_schedule(self):
        assert next_delays("cell", 0, base_s=0.05, max_s=2.0) == []

    def test_zero_max_caps_everything_to_zero(self):
        assert backoff_delay("k", 5, base_s=1.0, max_s=0.0) == 0.0

    def test_jitter_is_identical_across_processes(self):
        """The jitter must be a pure function of its inputs — not of
        PYTHONHASHSEED, RNG state, or anything else process-local."""
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        script = ("from repro.backoff import backoff_delay; "
                  "print(repr(backoff_delay('tenant-a', 3, "
                  "base_s=0.1, max_s=2.0, salt='serve.shed')))")
        outputs = set()
        for hash_seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
            outputs.add(proc.stdout.strip())
        local = repr(backoff_delay("tenant-a", 3, base_s=0.1, max_s=2.0,
                                   salt="serve.shed"))
        assert outputs == {local}


class TestRunnerCompatibility:
    def test_scheduler_delegates_to_shared_helper(self):
        """The runner's retry spacing is the shared formula, unchanged."""
        from repro.faults import stable_fraction
        from repro.runner.scheduler import (RETRY_BACKOFF_MAX_S,
                                            RETRY_BACKOFF_S, _backoff_delay)

        for attempt in range(8):
            legacy = (min(RETRY_BACKOFF_MAX_S, RETRY_BACKOFF_S * 2 ** attempt)
                      * (0.5 + stable_fraction("backoff", "somekey", attempt)))
            assert _backoff_delay("somekey", attempt) == legacy
