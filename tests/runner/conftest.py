"""Runner test fixtures: policy isolation and small sweep options."""

import pytest

from repro.experiments.common import ExperimentOptions
from repro.runner import scheduler


@pytest.fixture(autouse=True)
def _restore_policy():
    """Tests may install a global execution policy; undo it."""
    old = scheduler.get_policy()
    yield
    scheduler.set_policy(old)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once: zero the scheduler's retry backoff."""
    monkeypatch.setattr(scheduler, "RETRY_BACKOFF_S", 0.0)


@pytest.fixture
def tiny_options() -> ExperimentOptions:
    """A sweep small enough for sub-second cells."""
    return ExperimentOptions(n_accesses=6000, workloads=("oltp",), seed=7)
