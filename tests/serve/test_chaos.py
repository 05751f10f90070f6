"""Chaos: misbehaving tenants must not stall or starve the rest.

Hand-scripted misbehaviour (vanish after acceptance, garbage frames,
glacial reads) races a well-behaved tenant, which must still land
every job on a server that then goes idle cleanly.
"""

import asyncio

from repro.serve import AdmissionConfig, ServeClient

from .conftest import TINY_SPEC, serving


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

