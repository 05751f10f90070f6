"""Chaos: misbehaving tenants must not stall or starve the rest.

Two layers: hand-scripted misbehaviour (vanish after acceptance,
garbage frames, glacial reads) racing a well-behaved tenant, and a
seeded loadgen run with mixed fault probabilities that must still
produce a clean report and a drainable server.
"""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, parse_fault_spec
from repro.serve import AdmissionConfig, LoadGenConfig, ServeClient
from repro.serve.loadgen import run_loadgen_async

from .conftest import TINY_SPEC, serving


class TestServeFaultSpec:
    def test_parse_serve_modes(self):
        plan = parse_fault_spec(
            "slow_client:0.2,disconnect:0.1,malformed:0.3,slow_client_s:0.05")
        assert plan.slow_client_p == 0.2
        assert plan.disconnect_p == 0.1
        assert plan.malformed_p == 0.3
        assert plan.slow_client_s == 0.05
        assert plan.serve_active

    def test_zeroed_plan_is_inactive(self):
        assert not FaultPlan().serve_active
        assert not parse_fault_spec("crash:0.5").serve_active

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(disconnect_p=1.5)

    def test_rolls_are_deterministic_and_independent(self):
        plan = FaultPlan(disconnect_p=0.5, malformed_p=0.5, seed=9)
        again = FaultPlan(disconnect_p=0.5, malformed_p=0.5, seed=9)
        rolls = [(plan.should_disconnect("a", i), plan.should_malform("a", i))
                 for i in range(64)]
        assert rolls == [(again.should_disconnect("a", i),
                          again.should_malform("a", i)) for i in range(64)]
        # Both faults fire somewhere, and not always together: the
        # modes roll independently rather than sharing one dice throw.
        assert any(d for d, _ in rolls) and any(m for _, m in rolls)
        assert any(d != m for d, m in rolls)

    def test_rolls_vary_by_tenant(self):
        plan = FaultPlan(disconnect_p=0.5)
        a = [plan.should_disconnect("a", i) for i in range(64)]
        b = [plan.should_disconnect("b", i) for i in range(64)]
        assert a != b


class TestMisbehavingTenantContainment:
    def test_good_tenant_unaffected_by_evil_one(self):
        """Three flavours of misbehaviour at once; 'good' still lands
        every job.  The in-flight cap of 1 is the containment bound:
        evil can hold at most one of the two slots no matter what."""
        admission = AdmissionConfig(max_in_flight_per_tenant=1,
                                    max_queued_per_tenant=4)

        async def evil_abandoner(server):
            # Vanish the instant the job is accepted, three times over.
            for i in range(3):
                client = await ServeClient.connect(server.address, "evil")
                await client.submit(TINY_SPEC, f"e{i}")
                await client.recv()  # accepted or shed — either way, bail
                await client.close(polite=False)

        async def evil_garbler(server):
            client = await ServeClient.connect(server.address, "evil")
            for _ in range(8):
                await client.send_raw(b"\x7b not json at all\n")
                await client.recv()  # the error reply
            await client.close(polite=False)

        async def evil_sloth(server):
            # Submit, then read nothing for a while before draining.
            client = await ServeClient.connect(server.address, "evil")
            await client.submit(TINY_SPEC, "sloth")
            await asyncio.sleep(0.5)
            await client.collect("sloth")
            await client.close()

        async def good(server):
            results = []
            for i in range(4):
                async with await ServeClient.connect(
                        server.address, "good") as client:
                    results.append(await client.run_job(TINY_SPEC, f"g{i}"))
            return results

        async def scenario():
            async with serving(slots=2, admission=admission) as server:
                evil = [asyncio.create_task(fn(server), name=fn.__name__)
                        for fn in (evil_abandoner, evil_garbler, evil_sloth)]
                results = await asyncio.wait_for(good(server), timeout=60)
                await asyncio.gather(*evil, return_exceptions=True)
                async with await ServeClient.connect(
                        server.address, "probe") as probe:
                    # Abandoned jobs are still admitted work and may
                    # run after good's last job: wait (bounded) for
                    # the server to go idle before reading the totals.
                    stats = await probe.status()
                    for _ in range(600):
                        if not (stats["queue_depth"] or stats["in_flight"]):
                            break
                        await asyncio.sleep(0.05)
                        stats = await probe.status()
                return results, stats

        results, stats = asyncio.run(scenario())
        assert [r.status for r in results] == ["ok"] * 4
        assert stats["tenants"]["good"]["completed"] == 4
        # Abandoned-but-admitted jobs still ran to completion: admitted
        # work is never dropped, its results are simply unread.
        assert stats["failed"] == 0
        assert stats["completed"] == stats["admitted"]
        assert stats["queue_depth"] == 0 and stats["in_flight"] == 0


class TestChaosLoadgen:
    def test_mixed_faults_clean_report_and_drain(self):
        faults = FaultPlan(disconnect_p=0.3, malformed_p=0.2,
                           slow_client_p=0.3, slow_client_s=0.05)

        async def scenario():
            async with serving(slots=2) as server:
                config = LoadGenConfig(
                    address=server.address, tenants=3, jobs_per_tenant=4,
                    rate_hz=20.0, spec=dict(TINY_SPEC), seed=5,
                    faults=faults, job_timeout_s=60.0)
                report = await run_loadgen_async(config)
                # The server survived the abuse: a fresh client still
                # gets served, and the context-manager drain completes.
                async with await ServeClient.connect(
                        server.address, "after") as client:
                    sane = await client.run_job(TINY_SPEC, "after-1")
                return report, sane

        report, sane = asyncio.run(scenario())
        assert report["faults_active"]
        assert report["submitted"] == 12
        assert report["errors"] == 0
        assert report["failed"] == 0
        # The plan's probabilities guarantee some arrivals misbehaved
        # (deterministic rolls — this is not a flaky expectation).
        assert report["by_status"].get("abandoned", 0) > 0
        assert report["completed"] > 0
        assert sane.status == "ok"
