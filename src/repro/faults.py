"""Deterministic, seed-driven fault injection for the cell runner.

Chaos testing only works when failures are *reproducible*: a flaky
fault plan makes a chaos CI step itself flaky.  Every decision here is
therefore a pure function of ``(plan.seed, fault mode, cell key,
attempt)`` — no global counters, no ``random`` module state — so the
same plan produces the same crashes in serial and parallel runs, across
worker-assignment shuffles, and on every CI re-run.

A :class:`FaultPlan` rides inside
:class:`~repro.runner.scheduler.ExecutionPolicy` (it is frozen and
picklable, so it travels to pool workers) and is applied by
:func:`repro.runner.execute.execute_timed` just before a cell runs.
Four fault modes cover the runner's failure paths:

``crash``
    Raise :class:`InjectedFault` inside the worker — exercises the
    exception-isolation and retry machinery.  ``crash:P`` rolls with
    probability ``P`` per ``(cell, attempt)``; ``crash@N`` raises on
    every cell's first ``N`` attempts (raise-on-Nth-call: the cell
    succeeds on attempt ``N``, exercising exactly ``N`` retries).
``hang``
    Sleep ``hang_s`` seconds — exercises the per-cell timeout watchdog
    and pool rebuild.
``exit``
    Kill the worker process with ``os._exit`` — exercises the
    lost-task path (requires a timeout to be detected).  In serial
    (in-process) execution this raises instead of exiting, because
    killing the only process would end the run rather than test it.
``corrupt``
    Truncate the just-written cache artifact — exercises the store's
    quarantine path on the next run.  Applied by the scheduler after
    ``ResultStore.put``, never inside workers.

One **network fault mode** is applied by the *server* at its write
boundary (a plan handed to :class:`~repro.serve.server.ServeConfig`),
modelling the transport failing underneath an otherwise well-behaved
client:

``partition``
    The server delivers two frames (the welcome and the job's
    acceptance), then closes the connection — the classic network
    partition after a job is underway; exercises cancel-on-disconnect
    and watchdog cleanup.

The partition is rolled once per ``(tenant, connection index)`` — same
:func:`stable_fraction` determinism.  ``net_tenants`` narrows it to
named tenants, which is how the partition drill makes one tenant the
victim while proving the others unaffected.

Specs are parsed from the hidden ``run --inject-faults`` flag (e.g.
``crash:0.3``, ``crash@2,hang:0.1,seed:7``, ``hang:1,hang_s:5``) and
from ``serve --inject-net-faults`` (e.g. ``partition:1,net_tenants:t0``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, RunnerError

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "corrupt_artifact",
    "parse_fault_spec",
    "stable_fraction",
]


class InjectedFault(RunnerError):
    """An artificial failure raised by a :class:`FaultPlan`."""


def stable_fraction(*parts: object) -> float:
    """Deterministic pseudo-random fraction in ``[0, 1)`` from ``parts``.

    SHA-256 over the ``:``-joined string rendering, first 8 bytes as an
    integer, scaled.  Used for fault rolls and for retry-backoff jitter
    so neither depends on interpreter or scheduler state.
    """
    blob = ":".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """Picklable description of which faults to inject, and when.

    Probabilities are rolled independently per ``(cell key, attempt)``
    via :func:`stable_fraction`; ``crash_attempts`` is the deterministic
    raise-on-first-N-attempts form.  A zeroed plan injects nothing.
    """

    crash_p: float = 0.0
    hang_p: float = 0.0
    exit_p: float = 0.0
    corrupt_p: float = 0.0
    #: Every cell's first N attempts raise (then attempt N succeeds).
    crash_attempts: int = 0
    #: How long an injected hang sleeps (choose > the cell timeout).
    hang_s: float = 5.0
    #: Network partition, rolled once per (tenant, connection index)
    #: and applied by the server at its write boundary.
    partition_p: float = 0.0
    #: Restrict the partition to these tenants (empty = all tenants).
    net_tenants: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_p", "hang_p", "exit_p", "corrupt_p",
                     "partition_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"fault probability {name}={p!r} not in [0, 1]")
        if self.crash_attempts < 0:
            raise ConfigError("crash_attempts must be >= 0")
        if self.hang_s < 0:
            raise ConfigError("hang_s must be >= 0")

    # -- decisions ------------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self.crash_p or self.hang_p or self.exit_p
                    or self.corrupt_p or self.crash_attempts)

    def _roll(self, mode: str, key: str, attempt: int, p: float) -> bool:
        return p > 0.0 and stable_fraction(self.seed, mode, key, attempt) < p

    def should_crash(self, key: str, attempt: int) -> bool:
        if attempt < self.crash_attempts:
            return True
        return self._roll("crash", key, attempt, self.crash_p)

    def should_hang(self, key: str, attempt: int) -> bool:
        return self._roll("hang", key, attempt, self.hang_p)

    def should_exit(self, key: str, attempt: int) -> bool:
        return self._roll("exit", key, attempt, self.exit_p)

    def should_corrupt(self, key: str) -> bool:
        """Corrupt the stored artifact for ``key`` (attempt-independent)."""
        return self._roll("corrupt", key, 0, self.corrupt_p)

    def should_partition(self, tenant: str, conn_index: int) -> bool:
        """Partition this tenant connection (rolled once per link)."""
        if self.net_tenants and tenant not in self.net_tenants:
            return False
        return self._roll("partition", tenant, conn_index, self.partition_p)

    # -- application ----------------------------------------------------
    def apply(self, key: str, attempt: int) -> None:
        """Inject the planned execution faults for one cell attempt.

        Called at the top of the cell executor.  ``exit`` only truly
        exits inside a daemonic pool worker; in the main process it
        degrades to a raise so serial runs stay alive.
        """
        if self.should_exit(key, attempt):
            if multiprocessing.current_process().daemon:
                os._exit(86)  # hard worker death, bypassing cleanup
            raise InjectedFault(
                f"injected worker death for cell {key[:12]} attempt {attempt} "
                "(raised: not in a pool worker)")
        if self.should_hang(key, attempt):
            time.sleep(self.hang_s)
        if self.should_crash(key, attempt):
            raise InjectedFault(
                f"injected crash for cell {key[:12]} attempt {attempt}")


def corrupt_artifact(path: str | Path) -> bool:
    """Overwrite an artifact with garbage (the ``corrupt`` fault mode).

    Returns True if the file existed and was clobbered.  The damage is
    exactly what a torn write would leave: truncated, unparsable JSON.
    """
    path = Path(path)
    if not path.is_file():
        return False
    path.write_bytes(b'{"schema": 1, "code_')
    return True


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse an ``--inject-faults`` spec string into a :class:`FaultPlan`.

    Grammar: comma-separated tokens, each one of
    ``crash:P | crash@N | hang:P | exit:P | corrupt:P | seed:N | hang_s:S
    | partition:P | net_tenants:T+U+...``.
    """
    plan = FaultPlan()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "@" in token:
            mode, _, value = token.partition("@")
            if mode.strip() != "crash":
                raise ConfigError(
                    f"fault token {token!r}: only 'crash@N' supports @")
            try:
                plan = replace(plan, crash_attempts=int(value))
            except ValueError:
                raise ConfigError(
                    f"fault token {token!r}: N must be an integer") from None
            continue
        mode, sep, value = token.partition(":")
        mode = mode.strip()
        if not sep:
            raise ConfigError(
                f"fault token {token!r}: expected 'mode:value' or 'crash@N'")
        try:
            if mode == "seed":
                plan = replace(plan, seed=int(value))
            elif mode == "net_tenants":
                tenants = tuple(t for t in value.split("+") if t)
                if not tenants:
                    raise ConfigError(
                        f"fault token {token!r}: expected tenant names "
                        "joined by '+'")
                plan = replace(plan, net_tenants=tenants)
            elif mode == "hang_s":
                plan = replace(plan, hang_s=float(value))
            elif mode in ("crash", "hang", "exit", "corrupt", "partition"):
                plan = replace(plan, **{f"{mode}_p": float(value)})
            else:
                raise ConfigError(
                    f"unknown fault mode {mode!r}; "
                    "known: crash, hang, exit, corrupt, partition, seed, "
                    "hang_s, net_tenants")
        except ValueError:
            raise ConfigError(
                f"fault token {token!r}: value {value!r} is not a number") from None
    return plan
