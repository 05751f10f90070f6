"""Load-generator math, determinism, and a small closed-loop run."""

import asyncio
import random

import pytest

from repro.errors import ProtocolError
from repro.serve import LoadGenConfig, jain_index
from repro.serve.loadgen import percentile, run_loadgen_async

from .conftest import TINY_SPEC, serving


class TestJainIndex:
    def test_perfectly_even(self):
        assert jain_index([3.0, 3.0, 3.0, 3.0]) == 1.0

    def test_single_hog(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_mild_skew_is_between(self):
        value = jain_index([4.0, 3.0, 3.0, 2.0])
        assert 0.9 < value < 1.0


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            LoadGenConfig(address="x:1", tenants=0)
        with pytest.raises(ProtocolError):
            LoadGenConfig(address="x:1", rate_hz=0.0)

    def test_seed_variation_is_deterministic_and_distinct(self):
        config = LoadGenConfig(address="x:1", tenants=2, jobs_per_tenant=3)
        specs = [config.job_spec(t, j) for t in range(2) for j in range(3)]
        seeds = [s["seed"] for s in specs]
        assert len(set(seeds)) == len(seeds)  # every job is real work
        again = [config.job_spec(t, j) for t in range(2) for j in range(3)]
        assert specs == again

    def test_arrival_schedule_is_seeded(self):
        """The Poisson gaps a tenant source draws are reproducible."""
        def gaps(seed):
            rng = random.Random(f"{seed}:t0")
            return [rng.expovariate(2.0) for _ in range(5)]

        assert gaps(7) == gaps(7)
        assert gaps(7) != gaps(8)


class TestAgainstRealServer:
    def test_underload_completes_everything_fairly(self):
        async def scenario():
            async with serving(slots=2) as server:
                config = LoadGenConfig(
                    address=server.address, tenants=2, jobs_per_tenant=3,
                    rate_hz=20.0, spec=dict(TINY_SPEC), seed=11,
                    job_timeout_s=60.0)
                return await run_loadgen_async(config)

        report = asyncio.run(scenario())
        assert report["submitted"] == 6
        assert report["completed"] == 6
        assert report["shed"] == 0
        assert report["errors"] == 0
        assert report["fairness_jain"] == 1.0
        assert report["latency_s"]["p99"] >= report["latency_s"]["p50"] > 0
        assert report["throughput_jobs_per_s"] > 0
        assert set(report["per_tenant"]) == {"t0", "t1"}

    def test_overload_sheds_at_admission_only(self):
        """4x-ish saturation: everything is either served or shed —
        nothing errors, nothing is dropped mid-run."""
        async def scenario():
            from repro.serve import AdmissionConfig
            admission = AdmissionConfig(max_queued_total=2,
                                        max_queued_per_tenant=1)
            async with serving(slots=1, admission=admission) as server:
                config = LoadGenConfig(
                    address=server.address, tenants=3, jobs_per_tenant=4,
                    rate_hz=50.0, spec={**TINY_SPEC, "n_accesses": 20_000},
                    seed=3, job_timeout_s=120.0)
                return await run_loadgen_async(config)

        report = asyncio.run(scenario())
        assert report["submitted"] == 12
        assert report["errors"] == 0
        assert report["failed"] == 0
        assert report["shed"] > 0  # the bounds actually bit
        assert report["completed"] + report["shed"] == 12
        for tenant in report["per_tenant"].values():
            assert tenant["completed"] >= 1  # nobody starved outright

    def test_timed_out_job_is_one_error(self):
        """A job the client gives up on counts once, as one error."""
        async def scenario():
            async with serving(slots=1, cancel_on_disconnect=True,
                               cancel_check_every=1024) as server:
                config = LoadGenConfig(
                    address=server.address, tenants=1, jobs_per_tenant=1,
                    rate_hz=50.0, spec={**TINY_SPEC, "n_accesses": 200_000},
                    seed=1, job_timeout_s=0.2)
                return await run_loadgen_async(config)

        report = asyncio.run(scenario())
        assert report["errors"] == report["submitted"] == 1
        assert sum(report["by_status"].values()) == report["submitted"]

