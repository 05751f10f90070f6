"""Cooperative cancellation: tokens, deadlines, and live progress.

A :class:`CancelToken` is the thread-safe conduit between the layer
that *decides* a job must stop (the serve tier's cancel frame, a
per-job deadline, a disconnect watchdog, a server shutdown) and the layer
that is *doing the work* (the simulation engine's hot loop, possibly
several frames of ``run_cells`` deep and running inside
``asyncio.to_thread``).  Cancellation is cooperative with **bounded
staleness**: the engine checks the token every
:data:`DEFAULT_CHECK_EVERY` simulated accesses (one integer compare
per access, so uncancelled runs stay bit-identical and effectively
free), which bounds both how long a cancel takes to land and how much
work a job does after being cut off.

The same token carries **live progress**: the engine adds the number
of simulated accesses at every check point, and any other thread (the
serve watchdog, a ``status`` poll) may read :attr:`CancelToken.progress`
concurrently — the engine thread is the only writer, so a plain int is
safe under the GIL.  Progress is what the serve tier's ``job_status``
reply reports, which is why it counts *simulated accesses* (work done),
not wall-clock or cells.

Deadlines live on the token too: a token built with ``deadline_s``
auto-cancels itself (reason :data:`REASON_DEADLINE`) the first time
anyone observes it past the deadline, so every checkpoint in the
engine doubles as a deadline check and no watchdog precision is
needed for enforcement — the watchdog only needs to exist for work
that never reaches a checkpoint.

Tokens travel by *thread-local* scope, not by argument threading: the
runner wraps each in-thread cell execution in :func:`cancel_scope`,
and the engine asks :func:`current_token` once per run.  Pool workers
never see the token (it is not picklable); the pool scheduler polls it
between collections instead and tears the pool down on cancellation.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from .errors import ConfigError, JobCancelled

__all__ = [
    "CancelToken",
    "DEFAULT_CHECK_EVERY",
    "REASON_DEADLINE",
    "cancel_scope",
    "current_token",
]

#: How many simulated accesses may elapse between two cancellation
#: checks in the engine's hot loop — the staleness bound.  Small enough
#: that a cancel lands within microseconds of simulated work, large
#: enough that the check amortises to nothing.
DEFAULT_CHECK_EVERY = 4096

#: Reason recorded when a token cancels itself past its deadline.
REASON_DEADLINE = "deadline_exceeded"

#: Sentinel "next check" index that no trace can ever reach; lets the
#: hot loop use one unconditional ``i >= next_check`` compare whether
#: or not a token is present.
NEVER = 1 << 62


class CancelToken:
    """One job's cancellation flag, deadline, and progress counter.

    ``cancel()`` is first-wins and idempotent: the first recorded
    reason sticks.  ``cancelled`` never blocks and may be read from any
    thread; ``checkpoint()`` is the engine-side primitive that both
    publishes progress and raises :class:`~repro.errors.JobCancelled`
    when the flag (or the deadline) has been set.
    """

    __slots__ = ("_event", "_lock", "_reason", "_clock", "deadline_at",
                 "check_every", "progress", "cancelled_at")

    def __init__(self, deadline_s: float | None = None,
                 check_every: int = DEFAULT_CHECK_EVERY,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if check_every < 1:
            raise ConfigError("check_every must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError("deadline_s must be positive (or None)")
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason = ""
        self._clock = clock
        self.deadline_at = clock() + deadline_s if deadline_s is not None else None
        self.check_every = check_every
        #: Simulated accesses completed so far (engine thread writes,
        #: any thread reads).
        self.progress = 0
        #: Clock reading of the first cancel() call (0.0 = never);
        #: cancel latency = stop time - cancelled_at.
        self.cancelled_at = 0.0

    # -- deciding side ---------------------------------------------------
    def cancel(self, reason: str) -> bool:
        """Request cancellation; True if this call won the race."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason or "cancelled"
            self.cancelled_at = self._clock()
            self._event.set()
            return True

    # -- observing side --------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """Whether the job must stop (explicit cancel or past deadline)."""
        if self._event.is_set():
            return True
        if self.deadline_at is not None and self._clock() > self.deadline_at:
            self.cancel(REASON_DEADLINE)
            return True
        return False

    @property
    def reason(self) -> str:
        return self._reason

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise JobCancelled(
                f"job cancelled ({self._reason}) after "
                f"{self.progress} simulated accesses",
                reason=self._reason, progress=self.progress)

    # -- working side ----------------------------------------------------
    def advance(self, n: int) -> None:
        """Publish ``n`` more simulated accesses of completed work."""
        if n > 0:
            self.progress += n

    def checkpoint(self, n: int) -> None:
        """One bounded-staleness check: publish progress, then bail if
        cancellation (or the deadline) has been requested."""
        self.advance(n)
        self.raise_if_cancelled()

    def wait(self, timeout: float) -> bool:
        """Sleep up to ``timeout`` seconds, waking early on cancel (or
        at the deadline); returns :attr:`cancelled`.  The runner uses
        this for retry backoff so a cancelled job never sits out a
        backoff window."""
        if self.deadline_at is not None:
            timeout = min(timeout, max(0.0, self.deadline_at - self._clock()))
        self._event.wait(timeout)
        return self.cancelled


#: The thread's active token (set by :func:`cancel_scope`).
_SCOPE = threading.local()


def current_token() -> CancelToken | None:
    """The :class:`CancelToken` governing this thread, if any."""
    return getattr(_SCOPE, "token", None)


@contextmanager
def cancel_scope(token: CancelToken | None) -> Iterator[CancelToken | None]:
    """Install ``token`` as this thread's current token.

    ``cancel_scope(None)`` is a true no-op (it does not mask an outer
    scope), so callers can pass their optional token through without
    branching.
    """
    if token is None:
        yield None
        return
    previous = current_token()
    _SCOPE.token = token
    try:
        yield token
    finally:
        _SCOPE.token = previous
