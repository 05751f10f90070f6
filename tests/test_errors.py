"""Exception hierarchy: one base, catchable layers, no surprises."""

import pytest

from repro import errors
from repro.errors import (CellFailedError, ConfigError, ReproError,
                          RunnerError, RunnerTimeoutError)


class TestHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        exported = [getattr(errors, name) for name in dir(errors)
                    if isinstance(getattr(errors, name), type)
                    and issubclass(getattr(errors, name), Exception)]
        assert all(issubclass(exc, ReproError) for exc in exported)

    def test_robustness_errors_are_runner_errors(self):
        for exc in (RunnerTimeoutError, CellFailedError):
            assert issubclass(exc, RunnerError)
            assert issubclass(exc, ReproError)

    def test_robustness_errors_are_distinct(self):
        """A timeout must be distinguishable from exhaustion — callers
        branch on these."""
        assert not issubclass(RunnerTimeoutError, CellFailedError)
        assert not issubclass(CellFailedError, RunnerTimeoutError)

    def test_injected_fault_is_a_runner_error(self):
        from repro.faults import InjectedFault
        assert issubclass(InjectedFault, RunnerError)
        assert not issubclass(InjectedFault, ConfigError)

    def test_single_except_clause_catches_all(self):
        for exc in (RunnerTimeoutError("t"), CellFailedError("c")):
            with pytest.raises(ReproError):
                raise exc
