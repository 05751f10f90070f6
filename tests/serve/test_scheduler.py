"""Pure fair-queueing + admission-control semantics (no server, no
sockets)."""

import pytest

from repro.errors import ServeError
from repro.serve import AdmissionConfig, FairScheduler, JobSpec
from repro.serve.scheduler import (
    REASON_SERVER_SATURATED,
    REASON_STOPPING,
    REASON_TENANT_QUEUE_FULL,
    Job,
)

SPEC = JobSpec(workload="oltp")


def job(tenant: str, n: int = 0) -> Job:
    return Job(job_id=f"{tenant}-{n}", request_id=f"r{n}", tenant=tenant,
               spec=SPEC, cells=[], options=None)


def drain_order(sched: FairScheduler, service_s=1.0) -> list[str]:
    """Run the queue serially, returning the tenant dispatch order."""
    order = []
    while sched.has_work():
        picked = sched.next_job()
        order.append(picked.tenant)
        sched.finish(picked, service_s=service_s)
    return order


class TestAdmissionBounds:
    def test_global_cap_sheds(self):
        sched = FairScheduler(AdmissionConfig(max_queued_total=2,
                                              max_queued_per_tenant=8))
        assert sched.submit(job("a", 0)).accepted
        assert sched.submit(job("b", 1)).accepted
        result = sched.submit(job("c", 2))
        assert not result.accepted
        assert result.reason == REASON_SERVER_SATURATED
        assert result.retry_after_s > 0

    def test_tenant_cap_sheds_before_global(self):
        sched = FairScheduler(AdmissionConfig(max_queued_total=64,
                                              max_queued_per_tenant=1))
        assert sched.submit(job("a", 0)).accepted
        result = sched.submit(job("a", 1))
        assert result.reason == REASON_TENANT_QUEUE_FULL
        assert sched.submit(job("b", 2)).accepted  # other tenants unaffected

    def test_draining_sheds_everything(self):
        sched = FairScheduler()
        sched.draining = True
        assert sched.submit(job("a")).reason == REASON_STOPPING

    def test_retry_after_is_deterministic_and_escalates(self):
        def shed_twice():
            sched = FairScheduler(AdmissionConfig(max_queued_per_tenant=1))
            sched.submit(job("a", 0))
            return [sched.submit(job("a", i)).retry_after_s
                    for i in (1, 2, 3, 4)]

        first, second = shed_twice(), shed_twice()
        assert first == second  # same streak -> same hints
        assert first[-1] > first[0]  # exponential escalation wins out

    def test_admit_resets_shed_streak(self):
        sched = FairScheduler(AdmissionConfig(max_queued_per_tenant=1))
        sched.submit(job("a", 0))
        hint_before = sched.submit(job("a", 1)).retry_after_s
        picked = sched.next_job()
        sched.finish(picked, service_s=1.0)
        sched.submit(job("a", 2))  # admitted: streak resets
        hint_after = sched.submit(job("a", 3)).retry_after_s
        assert hint_after == hint_before

    def test_config_validation(self):
        with pytest.raises(ServeError):
            AdmissionConfig(max_queued_total=0)
        with pytest.raises(ServeError):
            AdmissionConfig(shed_base_s=-1)


class TestFairQueueing:
    def test_equal_weights_alternate(self):
        sched = FairScheduler()
        for i in range(3):
            sched.submit(job("a", i))
            sched.submit(job("b", i))
        assert drain_order(sched) == ["a", "b", "a", "b", "a", "b"]

    def test_ties_break_on_name_deterministically(self):
        sched = FairScheduler()
        sched.submit(job("zeta", 0))
        sched.submit(job("alpha", 1))
        assert drain_order(sched) == ["alpha", "zeta"]

    def test_idle_return_does_not_bank_credit(self):
        sched = FairScheduler()
        # "a" works alone for a long while...
        for i in range(5):
            sched.submit(job("a", i))
        drain_order(sched, service_s=10.0)
        # ...then "b" arrives. Without the idle-return clamp, b's vtime
        # of 0 would let it monopolise the next 50 service-seconds.
        sched.submit(job("b", 0))
        sched.submit(job("a", 5))
        sched.submit(job("b", 1))
        sched.submit(job("a", 6))
        assert drain_order(sched) == ["a", "b", "a", "b"]

    def test_in_flight_cap_yields_to_other_tenants(self):
        sched = FairScheduler(AdmissionConfig(max_in_flight_per_tenant=1))
        sched.submit(job("a", 0))
        sched.submit(job("a", 1))
        sched.submit(job("b", 0))
        first = sched.next_job()
        assert first.tenant == "a"
        # "a" is at its in-flight cap: the next slot must go to "b",
        # and with "b" also busy there is nothing eligible at all.
        second = sched.next_job()
        assert second.tenant == "b"
        assert sched.next_job() is None
        sched.finish(first, service_s=1.0)
        assert sched.next_job().tenant == "a"

    def test_finish_without_in_flight_raises(self):
        sched = FairScheduler()
        with pytest.raises(ServeError, match="nothing in flight"):
            sched.finish(job("a"), service_s=1.0)


class TestStats:
    def test_totals_and_per_tenant_counters(self):
        sched = FairScheduler(AdmissionConfig(max_queued_per_tenant=1))
        sched.submit(job("a", 0))
        sched.submit(job("a", 1))  # shed
        picked = sched.next_job()
        sched.finish(picked, service_s=2.0, wait_s=0.5, ok=False)
        stats = sched.stats()
        assert stats["admitted"] == 1
        assert stats["shed"] == 1
        assert stats["failed"] == 1
        assert stats["completed"] == 0
        assert stats["queue_depth"] == 0
        tenant = stats["tenants"]["a"]
        assert tenant["served_s"] == 2.0
        assert tenant["waited_s"] == 0.5


class TestCancellation:
    def test_cancel_queued_removes_job(self):
        sched = FairScheduler()
        first, second = job("a", 0), job("a", 1)
        sched.submit(first)
        sched.submit(second)
        assert sched.cancel_queued(second.job_id) is second
        assert sched.queue_depth == 1
        assert sched.tenant("a").cancelled == 1
        assert sched.cancel_queued("nope") is None

    def test_cancelled_jobs_count_separately_in_stats(self):
        sched = FairScheduler()
        sched.submit(job("a", 0))
        picked = sched.next_job()
        sched.finish(picked, service_s=0.1, cancelled=True)
        stats = sched.stats()
        assert stats["cancelled"] == 1
        assert stats["completed"] == 0 and stats["failed"] == 0
