"""Job lifecycle over real sockets: cancel frames, deadlines, status
polls, disconnect reaping, and hard shutdown.

These are the tentpole's end-to-end guarantees: a cancel/deadline
observably stops the simulation mid-run (no cell ever streams back),
the terminal ``done`` frame carries a structured status + reason, and
tenant isolation holds (no cross-tenant cancel, no existence oracle).
"""

import asyncio
import gc

from repro.serve import ServeClient, protocol

from .conftest import TINY_SPEC, serving

#: One cell, big enough to run for seconds — a cancellation target.
LONG_SPEC = {**TINY_SPEC, "degrees": [1], "n_accesses": 200_000}


async def _wait_for(predicate, timeout_s=10.0, poll_s=0.02):
    """Poll ``predicate`` until truthy (returns it) or time out."""
    for _ in range(int(timeout_s / poll_s)):
        value = predicate()
        if value:
            return value
        await asyncio.sleep(poll_s)
    raise AssertionError("condition not reached before timeout")


async def _queued_job_status():
    """Status of a job queued behind a long one; both are then cancelled
    and the client closes while the server may still be writing."""
    async with serving(slots=1) as server:
        async with await ServeClient.connect(server.address, "alice") as client:
            await client.submit(LONG_SPEC, "r1")
            first = await client.recv()
            await client.submit(TINY_SPEC, "r2")
            second = await client.recv()
            await client.send(protocol.job_status_request(second["job"]))
            status = await client.recv()
            await client.cancel(second["job"], "r2")
            await client.cancel(first["job"], "r1")
            return status


class TestCancelFrame:
    def test_cancel_stops_a_running_job(self):
        async def scenario():
            async with serving(cancel_check_every=1024) as server:
                async with await ServeClient.connect(
                        server.address, "alice") as client:
                    await client.submit(LONG_SPEC, "r1")
                    accepted = await client.recv()
                    assert accepted["type"] == protocol.ACCEPTED
                    job_id = accepted["job"]
                    await asyncio.sleep(0.1)  # let the slot pick it up
                    await client.cancel(job_id, "r1")
                    result = await client.stream("r1", job_id)
                    stats = await _wait_for(
                        lambda: (server.scheduler.stats()
                                 if not server.scheduler.in_flight
                                 else None))
                    return result, stats

        result, stats = asyncio.run(scenario())
        assert result.status == protocol.STATUS_CANCELLED
        assert result.reason == protocol.REASON_CLIENT_CANCEL
        # The single cell never completed: the engine stopped mid-run.
        assert result.cells == []
        assert stats["cancelled"] == 1
        assert stats["completed"] == 0

    def test_cancel_removes_a_queued_job(self):
        async def scenario():
            async with serving(slots=1) as server:
                async with await ServeClient.connect(
                        server.address, "alice") as client:
                    # Fill the only slot, then queue a second job.
                    await client.submit(LONG_SPEC, "r1")
                    first = await client.recv()
                    await client.submit(TINY_SPEC, "r2")
                    second = await client.recv()
                    assert second["type"] == protocol.ACCEPTED
                    await client.cancel(second["job"], "r2")
                    ack = await client.recv()
                    assert ack["type"] == protocol.CANCELLING
                    done = await client.recv()
                    # Unblock the slot so teardown is quick.
                    await client.cancel(first["job"], "r1")
                    return done

        done = asyncio.run(scenario())
        assert done["type"] == protocol.DONE
        assert done["status"] == protocol.STATUS_CANCELLED
        assert done["reason"] == protocol.REASON_CLIENT_CANCEL
        assert done["service_s"] == 0.0  # never reached a worker slot

    def test_cancel_unknown_job_is_an_error_not_a_strike(self):
        async def scenario():
            async with serving() as server:
                async with await ServeClient.connect(
                        server.address, "alice") as client:
                    await client.send(protocol.cancel("no-such-job"))
                    reply = await client.recv()
                    # The connection must survive: racing a cancel
                    # against normal completion is not misbehaviour.
                    result = await client.run_job(TINY_SPEC, "r1")
                    return reply, result

        reply, result = asyncio.run(scenario())
        assert reply["type"] == protocol.ERROR
        assert result.status == "ok"

    def test_cancel_is_tenant_scoped(self):
        async def scenario():
            async with serving(cancel_check_every=1024) as server:
                alice = await ServeClient.connect(server.address, "alice")
                mallory = await ServeClient.connect(server.address, "mallory")
                try:
                    await alice.submit(LONG_SPEC, "r1")
                    accepted = await alice.recv()
                    job_id = accepted["job"]
                    # Another tenant's cancel must look exactly like a
                    # cancel of a job that does not exist.
                    await mallory.send(protocol.cancel(job_id))
                    refusal = await mallory.recv()
                    await mallory.send(protocol.job_status_request(job_id))
                    peek = await mallory.recv()
                    # The victim's job is still running and cancellable
                    # by its owner.
                    await alice.cancel(job_id, "r1")
                    result = await alice.stream("r1", job_id)
                    return refusal, peek, result
                finally:
                    await alice.close()
                    await mallory.close()

        refusal, peek, result = asyncio.run(scenario())
        assert refusal["type"] == protocol.ERROR
        assert peek["type"] == protocol.ERROR
        assert result.status == protocol.STATUS_CANCELLED


class TestDeadline:
    def test_submit_deadline_exceeded(self):
        async def scenario():
            async with serving(cancel_check_every=1024) as server:
                async with await ServeClient.connect(
                        server.address, "alice") as client:
                    await client.submit(LONG_SPEC, "r1", deadline_s=0.05)
                    return await client.collect("r1")

        result = asyncio.run(scenario())
        assert result.status == protocol.STATUS_DEADLINE
        assert result.reason == protocol.STATUS_DEADLINE
        assert result.cells == []

    def test_generous_deadline_does_not_fire(self):
        async def scenario():
            async with serving() as server:
                async with await ServeClient.connect(
                        server.address, "alice") as client:
                    await client.submit(TINY_SPEC, "r1", deadline_s=60.0)
                    return await client.collect("r1")

        result = asyncio.run(scenario())
        assert result.status == "ok"


class TestJobStatus:
    def test_status_poll_shows_live_progress(self):
        async def scenario():
            async with serving(cancel_check_every=1024) as server:
                submitter = await ServeClient.connect(server.address, "alice")
                poller = await ServeClient.connect(server.address, "alice")
                try:
                    await submitter.submit(LONG_SPEC, "r1")
                    accepted = await submitter.recv()
                    job_id = accepted["job"]

                    async def running_status():
                        reply = await poller.job_status(job_id)
                        return (reply if reply["state"] ==
                                protocol.STATE_RUNNING and
                                reply["accesses_done"] > 0 else None)

                    status = None
                    for _ in range(200):
                        status = await running_status()
                        if status:
                            break
                        await asyncio.sleep(0.02)
                    await submitter.cancel(job_id, "r1")
                    await submitter.stream("r1", job_id)
                    return status
                finally:
                    await submitter.close()
                    await poller.close()

        status = asyncio.run(scenario())
        assert status is not None
        assert status["state"] == protocol.STATE_RUNNING
        assert 0 < status["accesses_done"] < LONG_SPEC["n_accesses"]
        assert status["of"] == 1

    def test_status_of_queued_job(self):
        status = asyncio.run(_queued_job_status())
        assert status["type"] == protocol.JOB_STATUS
        assert status["state"] == protocol.STATE_QUEUED
        assert status["accesses_done"] == 0

    def test_client_hanging_up_first_leaves_no_unhandled_error(self):
        """The broken pipe of a client that hangs up first must end its
        connection as EOF, not escape to the loop's exception handler."""
        async def scenario():
            reported: list[dict] = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context))
            await _queued_job_status()
            gc.collect()  # a task's unretrieved exception reports on collection
            return reported

        reported = asyncio.run(scenario())
        assert [context.get("message") for context in reported] == []


class TestDisconnect:
    def test_cancel_on_disconnect_reaps_running_job(self):
        async def scenario():
            async with serving(cancel_check_every=1024,
                               cancel_on_disconnect=True) as server:
                client = await ServeClient.connect(server.address, "alice")
                await client.submit(LONG_SPEC, "r1")
                accepted = await client.recv()
                assert accepted["type"] == protocol.ACCEPTED
                await asyncio.sleep(0.1)
                await client.close(polite=False)
                return await _wait_for(
                    lambda: (server.scheduler.stats()
                             if server.scheduler.stats()["cancelled"]
                             else None))

        stats = asyncio.run(scenario())
        assert stats["cancelled"] == 1
        assert stats["completed"] == 0

    def test_disconnect_without_optin_lets_job_finish(self):
        async def scenario():
            async with serving() as server:
                client = await ServeClient.connect(server.address, "alice")
                await client.submit(TINY_SPEC, "r1")
                accepted = await client.recv()
                assert accepted["type"] == protocol.ACCEPTED
                await client.close(polite=False)
                return await _wait_for(
                    lambda: (server.scheduler.stats()
                             if server.scheduler.stats()["completed"]
                             else None))

        stats = asyncio.run(scenario())
        assert stats["completed"] == 1
        assert stats["cancelled"] == 0


class TestHardShutdown:
    def test_shutdown_now_sends_terminal_frames(self):
        """SIGTERM-style hard drain: running jobs get a terminal
        ``cancelled`` (reason ``server_shutdown``) frame, queued jobs
        too, and nothing is left in flight."""
        async def scenario():
            async with serving(slots=1, cancel_check_every=1024) as server:
                async with await ServeClient.connect(
                        server.address, "alice") as client:
                    await client.submit(LONG_SPEC, "r1")
                    running = await client.recv()
                    assert running["type"] == protocol.ACCEPTED
                    await client.submit(TINY_SPEC, "r2")
                    queued = await client.recv()
                    assert queued["type"] == protocol.ACCEPTED
                    await asyncio.sleep(0.1)
                    await server.shutdown_now()
                    frames = [await client.recv(), await client.recv()]
                    await _wait_for(
                        lambda: server.scheduler.in_flight == 0)
                    return frames, server.scheduler.stats()

        frames, stats = asyncio.run(scenario())
        by_job = {f["job"]: f for f in frames}
        assert len(by_job) == 2
        for frame in by_job.values():
            assert frame["type"] == protocol.DONE
            assert frame["status"] == protocol.STATUS_CANCELLED
            assert frame["reason"] == protocol.REASON_SERVER_SHUTDOWN
        assert stats["cancelled"] == 2
        assert stats["in_flight"] == 0
