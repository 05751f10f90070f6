"""Network chaos at the server's write boundary: a seeded,
tenant-targetable partition.

The headline drill: one tenant is fully partitioned while three
healthy tenants drive the server past saturation.  The victim's jobs
must be reaped (cancel-on-disconnect), the healthy tenants must see
bit-identical-to-batch results and fair throughput, and the server
must drain with nothing orphaned in flight.
"""

import asyncio

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.faults import FaultPlan, parse_fault_spec
from repro.runner import ExecutionPolicy, run_cells
from repro.serve import JobSpec, ServeClient, jain_index, protocol

from .conftest import TINY_SPEC, serving

LONG_SPEC = {**TINY_SPEC, "degrees": [1], "n_accesses": 200_000}


class TestNetFaultSpec:
    def test_parse_net_modes(self):
        plan = parse_fault_spec("partition:0.5,net_tenants:t0+t2,seed:3")
        assert plan.partition_p == 0.5
        assert plan.net_tenants == ("t0", "t2")
        assert plan.seed == 3

    def test_zeroed_plan_has_no_net_fates(self):
        plan = FaultPlan()
        assert not any(plan.should_partition("anyone", i) for i in range(16))

    def test_bad_net_config_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(partition_p=1.5)
        with pytest.raises(ConfigError):
            parse_fault_spec("partition:often")
        with pytest.raises(ConfigError):
            parse_fault_spec("net_tenants:")

    def test_removed_modes_rejected(self):
        # Partition is the one network fault; the old network and
        # client-chaos tokens are unknown modes now.
        for token in ("reset:1", "disconnect:1", "malformed:1"):
            with pytest.raises(ConfigError):
                parse_fault_spec(token)

    def test_fates_are_deterministic_and_tenant_scoped(self):
        plan = FaultPlan(partition_p=0.5, seed=11, net_tenants=("victim",))
        again = FaultPlan(partition_p=0.5, seed=11, net_tenants=("victim",))
        rolls = [plan.should_partition("victim", i) for i in range(64)]
        assert rolls == [again.should_partition("victim", i)
                         for i in range(64)]
        assert any(rolls) and not all(rolls)
        other_seed = FaultPlan(partition_p=0.5, seed=12,
                               net_tenants=("victim",))
        assert rolls != [other_seed.should_partition("victim", i)
                         for i in range(64)]
        # Tenants outside net_tenants are never partitioned.
        assert not any(plan.should_partition("healthy", i)
                       for i in range(64))

    def test_certain_partition_always_lands(self):
        plan = FaultPlan(partition_p=1.0)
        assert all(plan.should_partition("t", i) for i in range(16))


class TestPartitionDrill:
    def test_partitioned_tenant_reaped_healthy_tenants_bit_identical(self):
        """The acceptance drill: full partition of one tenant under
        ~4x saturation from three healthy tenants."""
        healthy_spec = {**TINY_SPEC, "degrees": [1, 2], "n_accesses": 2000}
        faults = FaultPlan(partition_p=1.0, net_tenants=("victim",))

        async def victim(server):
            # The partition fires after the accepted frame is delivered;
            # every later interaction dies with the connection.
            client = await ServeClient.connect(server.address, "victim")
            try:
                await client.submit(LONG_SPEC, "v1")
                accepted = await client.recv()
                assert accepted["type"] == protocol.ACCEPTED
                with pytest.raises(ProtocolError):
                    while True:
                        await client.recv()
            finally:
                await client.close(polite=False)

        async def healthy(server, tenant, results):
            for i in range(4):
                async with await ServeClient.connect(
                        server.address, tenant) as client:
                    results[tenant].append(
                        await client.run_job(healthy_spec, f"{tenant}-{i}"))

        async def scenario():
            async with serving(slots=2, cancel_on_disconnect=True,
                               cancel_check_every=1024,
                               faults=faults) as server:
                results = {t: [] for t in ("t0", "t1", "t2")}
                tasks = [asyncio.create_task(victim(server))]
                tasks += [asyncio.create_task(healthy(server, t, results))
                          for t in results]
                await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)
                for _ in range(500):
                    stats = server.scheduler.stats()
                    if stats["cancelled"] and not stats["in_flight"]:
                        break
                    await asyncio.sleep(0.02)
                return results, server.scheduler.stats()

        results, stats = asyncio.run(scenario())

        # 1. The victim's job was reaped, not left running or orphaned.
        assert stats["tenants"]["victim"]["cancelled"] == 1
        assert stats["tenants"]["victim"]["completed"] == 0
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0

        # 2. Healthy tenants landed every job, bit-identical to batch.
        cells, options = JobSpec.from_dict(healthy_spec).compile()
        batch, manifest = run_cells(
            cells, options, ExecutionPolicy(jobs=1, use_cache=False))
        assert manifest.failed == 0
        for tenant, jobs in results.items():
            assert [r.status for r in jobs] == ["ok"] * 4, tenant
            for r in jobs:
                assert r.payloads == batch

        # 3. Fair service across the healthy tenants.
        fairness = jain_index(
            [float(stats["tenants"][t]["completed"]) for t in results])
        assert fairness >= 0.9
