"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class TraceError(ReproError):
    """A trace file or trace object is malformed."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class GrammarError(ReproError):
    """The Sequitur grammar violated one of its invariants."""


class UnknownWorkloadError(ReproError, KeyError):
    """A workload name was requested that is not in the registry."""


class UnknownPrefetcherError(ReproError, KeyError):
    """A prefetcher name was requested that is not in the registry."""


class UnknownExperimentError(ReproError, KeyError):
    """An experiment id was requested that is not in the registry."""


class AnalysisError(ReproError):
    """The static analyzer was misconfigured or given unusable input."""


class RunnerError(ReproError):
    """The execution engine was given an invalid cell or policy."""


class RunnerTimeoutError(RunnerError):
    """A cell exceeded its per-cell wall-clock timeout."""


class CellFailedError(RunnerError):
    """A cell exhausted its retry budget and the run is not degradable."""


class JobCancelled(ReproError):
    """A job was cooperatively cancelled mid-run.

    Raised from a :class:`repro.cancel.CancelToken` checkpoint inside
    the simulation engine (or the runner's retry loop) when a cancel
    frame, deadline, disconnect, or shutdown asked the job to stop.  Not
    a failure: carries the structured ``reason`` and the ``progress``
    (simulated accesses completed) at the moment work stopped.
    """

    def __init__(self, message: str, reason: str = "cancelled",
                 progress: int = 0) -> None:
        super().__init__(message)
        self.reason = reason
        self.progress = progress


class ObsError(ReproError):
    """The telemetry layer was used incorrectly (unregistered span name,
    malformed span record, or an export over an inconsistent trace)."""


class ServeError(ReproError):
    """The experiment server was misconfigured or reached a bad state."""


class ProtocolError(ServeError):
    """A serve wire message is malformed or violates the protocol."""
