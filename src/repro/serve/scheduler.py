"""Fair queueing and admission control for the serve tier.

The scheduler is deliberately **pure**: no clock reads, no asyncio, no
telemetry — every decision is a function of the calls it has seen
(submit / next_job / finish) and the service times the caller reports.
The server wraps it with wall-clock timestamps and obs emission; tests
drive it with synthetic service times and assert exact schedules.

Fairness is start-time fair queueing over *served work*: each tenant
carries a virtual time — its cumulative service seconds — and the next
free worker slot always goes to the eligible backlogged tenant with the
lowest virtual time (ties break on the tenant name, so schedules are
deterministic).  A global virtual clock — the largest virtual time ever
dispatched — advances monotonically with served work; a tenant
entering (or returning from idle) has its virtual time clamped up to
that clock, so neither sleeping nor arriving late banks credit that
could later starve active tenants.

Admission control is three bounds, checked in order: a global queue
cap (sheds with ``server_saturated``), a per-tenant queue cap
(``tenant_queue_full``), and — at dispatch, not admission — a
per-tenant in-flight cap that keeps one tenant from occupying every
worker slot no matter how deep its queue is.  Sheds are never silent:
each carries a ``retry_after_s`` hint from the shared deterministic
backoff curve (:mod:`repro.backoff`), growing with the tenant's
consecutive-shed streak so a client hammering a saturated server is
pushed back harder each time.

Admitted jobs can still leave the queue without running — a client
cancel or a server drain calls :meth:`FairScheduler.cancel_queued` —
and running jobs can finish with ``cancelled=True``; neither charges
vtime beyond the service actually rendered, so fairness always tracks
work done, not work promised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..backoff import backoff_delay
from ..errors import ServeError
from ..experiments.common import ExperimentOptions
from ..runner import Cell
from .protocol import JobSpec

#: Jitter domain for retry-after hints (decorrelated from runner retries).
SHED_SALT = "serve.shed"

#: Shed reasons (wire-visible).
REASON_SERVER_SATURATED = "server_saturated"
REASON_TENANT_QUEUE_FULL = "tenant_queue_full"
REASON_STOPPING = "stopping"


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounds and shed-hint shape for one server instance."""

    max_queued_total: int = 64
    max_queued_per_tenant: int = 8
    max_in_flight_per_tenant: int = 2
    shed_base_s: float = 0.25
    shed_max_s: float = 8.0

    def __post_init__(self) -> None:
        for name in ("max_queued_total", "max_queued_per_tenant",
                     "max_in_flight_per_tenant"):
            if getattr(self, name) < 1:
                raise ServeError(f"{name} must be >= 1")
        if self.shed_base_s < 0 or self.shed_max_s < 0:
            raise ServeError("shed backoff delays must be >= 0")


@dataclass
class Job:
    """One admitted (or candidate) unit of work: a compiled spec."""

    job_id: str
    request_id: str
    tenant: str
    spec: JobSpec
    cells: list[Cell]
    options: ExperimentOptions
    #: Wall-clock bookkeeping, owned by the server (0.0 until set).
    enqueued_at: float = 0.0
    started_at: float = 0.0
    #: Lifecycle policy, parsed from the submit frame.
    deadline_s: float | None = None
    cancel_on_disconnect: bool = False


@dataclass(frozen=True)
class Admission:
    """Outcome of one submit: admitted, or shed with a retry hint."""

    accepted: bool
    reason: str = ""
    retry_after_s: float = 0.0
    queue_depth: int = 0
    tenant_depth: int = 0


@dataclass
class TenantState:
    """Everything the scheduler knows about one tenant."""

    name: str
    queue: deque[Job] = field(default_factory=deque)
    in_flight: int = 0
    #: Served seconds — the fair-queueing virtual clock.
    vtime: float = 0.0
    shed_streak: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    served_s: float = 0.0
    waited_s: float = 0.0

    @property
    def busy(self) -> bool:
        return bool(self.queue) or self.in_flight > 0

    def to_dict(self) -> dict[str, Any]:
        return {"queued": len(self.queue),
                "in_flight": self.in_flight, "vtime": round(self.vtime, 6),
                "admitted": self.admitted, "shed": self.shed,
                "completed": self.completed, "failed": self.failed,
                "cancelled": self.cancelled,
                "served_s": round(self.served_s, 6),
                "waited_s": round(self.waited_s, 6)}


class FairScheduler:
    """Pure fair-queueing + admission-control core (see module docstring)."""

    def __init__(self, admission: AdmissionConfig | None = None) -> None:
        self.admission = admission or AdmissionConfig()
        self._tenants: dict[str, TenantState] = {}
        #: Largest virtual time ever dispatched (monotone): the floor
        #: for tenants entering or returning from idle.
        self._vclock = 0.0
        self.draining = False

    # -- tenants --------------------------------------------------------
    def tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = TenantState(name=name)
        return state

    @property
    def queue_depth(self) -> int:
        return sum(len(t.queue) for t in self._tenants.values())

    @property
    def in_flight(self) -> int:
        return sum(t.in_flight for t in self._tenants.values())

    def _busy_min_vtime(self) -> float:
        busy = [t.vtime for t in self._tenants.values() if t.busy]
        return min(busy) if busy else 0.0

    # -- admission ------------------------------------------------------
    def submit(self, job: Job) -> Admission:
        """Admit ``job`` to its tenant's queue, or shed with a hint."""
        tenant = self.tenant(job.tenant)
        reason = ""
        if self.draining:
            reason = REASON_STOPPING
        elif self.queue_depth >= self.admission.max_queued_total:
            reason = REASON_SERVER_SATURATED
        elif len(tenant.queue) >= self.admission.max_queued_per_tenant:
            reason = REASON_TENANT_QUEUE_FULL
        if reason:
            tenant.shed += 1
            retry_after = backoff_delay(
                tenant.name, tenant.shed_streak,
                base_s=self.admission.shed_base_s,
                max_s=self.admission.shed_max_s, salt=SHED_SALT)
            tenant.shed_streak += 1
            return Admission(accepted=False, reason=reason,
                             retry_after_s=retry_after,
                             queue_depth=self.queue_depth,
                             tenant_depth=len(tenant.queue))
        if not tenant.busy:
            # Entering or back from idle: clamp up to the virtual clock
            # (and the busy minimum, which can run slightly ahead of it
            # between a dispatch and its finish) so downtime never banks
            # scheduling credit against active tenants.
            tenant.vtime = max(tenant.vtime, self._vclock,
                               self._busy_min_vtime())
        tenant.queue.append(job)
        tenant.admitted += 1
        tenant.shed_streak = 0
        return Admission(accepted=True, queue_depth=self.queue_depth,
                         tenant_depth=len(tenant.queue))

    # -- dispatch -------------------------------------------------------
    def eligible_tenants(self) -> list[TenantState]:
        """Backlogged tenants currently under their in-flight cap."""
        cap = self.admission.max_in_flight_per_tenant
        return [t for t in self._tenants.values()
                if t.queue and t.in_flight < cap]

    def has_work(self) -> bool:
        return bool(self.eligible_tenants())

    def next_job(self) -> Job | None:
        """Pop the next job in fair-queueing order, or None when none
        is eligible."""
        eligible = self.eligible_tenants()
        if not eligible:
            return None
        tenant = min(eligible, key=lambda t: (t.vtime, t.name))
        self._vclock = max(self._vclock, tenant.vtime)
        job = tenant.queue.popleft()
        tenant.in_flight += 1
        return job

    def cancel_queued(self, job_id: str) -> Job | None:
        """Remove a not-yet-started job from its tenant's queue.

        Returns the job (counted ``cancelled``) or None when no queue
        holds ``job_id`` — it already started, or never existed; the
        caller disambiguates via its own registry.
        """
        for tenant in self._tenants.values():
            for job in tenant.queue:
                if job.job_id == job_id:
                    tenant.queue.remove(job)
                    tenant.cancelled += 1
                    return job
        return None

    def finish(self, job: Job, service_s: float, wait_s: float = 0.0,
               ok: bool = True, cancelled: bool = False) -> None:
        """Charge a finished job's service time to its tenant.

        ``cancelled`` marks jobs that ended via cancel/deadline/
        disconnect/shutdown: they charge only the service rendered and
        count in neither ``completed`` nor ``failed``.
        """
        tenant = self.tenant(job.tenant)
        if tenant.in_flight < 1:
            raise ServeError(
                f"finish({job.job_id}) for tenant {job.tenant!r} "
                "with nothing in flight")
        tenant.in_flight -= 1
        tenant.vtime += max(service_s, 0.0)
        tenant.served_s += max(service_s, 0.0)
        tenant.waited_s += max(wait_s, 0.0)
        if cancelled:
            tenant.cancelled += 1
        elif ok:
            tenant.completed += 1
        else:
            tenant.failed += 1
        if self.queue_depth == 0 and self.in_flight == 0:
            # Fully idle: advance the clock over every tenant's charged
            # time, so the next busy period starts everyone level — no
            # tenant carries credit (or debt) across system idleness.
            self._vclock = max([self._vclock]
                               + [t.vtime for t in self._tenants.values()])

    # -- reporting ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """JSON-ready snapshot (the ``status`` reply body)."""
        tenants = {name: t.to_dict()
                   for name, t in sorted(self._tenants.items())}
        return {
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "draining": self.draining,
            "admitted": sum(t.admitted for t in self._tenants.values()),
            "shed": sum(t.shed for t in self._tenants.values()),
            "completed": sum(t.completed for t in self._tenants.values()),
            "failed": sum(t.failed for t in self._tenants.values()),
            "cancelled": sum(t.cancelled for t in self._tenants.values()),
            "tenants": tenants,
        }
