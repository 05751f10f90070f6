"""Seeded multi-tenant load generator for the experiment server.

Each simulated tenant is an open-loop Poisson source: arrival times are
drawn from a per-tenant ``random.Random`` seeded from ``(seed,
tenant)``, so the *offered* load — who submits what, and when — is
bit-reproducible across runs.  What the server *does* with that load
(admission decisions, fairness, latency) is the measurement.

Every arrival opens its own connection, submits one job, and drains the
reply stream; jobs from the same tenant overlap when arrivals outpace
service, which is exactly how the admission bounds get exercised.

The output is a BENCH-style JSON report: throughput, latency
percentiles, shed rate, and the Jain fairness index over per-tenant
completions — consumed by ``benchmarks/bench_serve.py`` and the CI
serve-smoke job, which gate on it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ProtocolError
from .client import ServeClient

#: Default job: the smallest spec admission allows — service time is
#: dominated by a real (tiny) simulation, not by protocol overhead.
DEFAULT_SPEC: dict[str, Any] = {
    "workload": "sat_solver",
    "prefetcher": "domino",
    "kind": "trace",
    "degrees": [1],
    "n_accesses": 1_000,
}


def jain_index(values: list[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of unsorted ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class LoadGenConfig:
    """One load-generation scenario (fully determined by its fields)."""

    address: str
    tenants: int = 4
    jobs_per_tenant: int = 8
    #: Per-tenant Poisson arrival rate (jobs/second).
    rate_hz: float = 2.0
    spec: dict[str, Any] = field(default_factory=lambda: dict(DEFAULT_SPEC))
    seed: int = 1234
    #: Client-side guard: a job stuck longer than this counts as error.
    job_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.jobs_per_tenant < 1:
            raise ProtocolError("loadgen needs >= 1 tenant and >= 1 job each")
        if self.rate_hz <= 0:
            raise ProtocolError("loadgen rate_hz must be > 0")

    def tenant_names(self) -> list[str]:
        return [f"t{i}" for i in range(self.tenants)]

    def job_spec(self, tenant_index: int, job_index: int) -> dict[str, Any]:
        """Every job gets a distinct spec seed, so its service time is
        real work, not a cache hit on the first job's artifact."""
        spec = dict(self.spec)
        base = int(spec.get("seed", 1234))
        spec["seed"] = (base + tenant_index * self.jobs_per_tenant
                        + job_index) % 2**32
        return spec


async def _one_job(config: LoadGenConfig, tenant: str, tenant_index: int,
                   job_index: int, records: list[dict[str, Any]]) -> None:
    """One arrival: connect, submit, drain, record."""
    record: dict[str, Any] = {"tenant": tenant, "index": job_index,
                              "status": "error", "latency_s": 0.0,
                              "retry_after_s": 0.0, "reason": ""}
    records.append(record)
    started = time.perf_counter()
    try:
        client = await ServeClient.connect(config.address, tenant)
    except (ProtocolError, OSError) as exc:
        record["reason"] = f"connect: {exc}"
        return
    try:
        result = await client.run_job(config.job_spec(tenant_index, job_index),
                                      f"{tenant}-{job_index}")
        record["status"] = result.status
        record["reason"] = result.reason
        record["retry_after_s"] = result.retry_after_s
        record["latency_s"] = time.perf_counter() - started
    except (ProtocolError, OSError) as exc:
        record["reason"] = str(exc)
    finally:
        await client.close()


async def _tenant_source(config: LoadGenConfig, tenant_index: int,
                         records: list[dict[str, Any]],
                         jobs: list[asyncio.Task[None]]) -> None:
    """Open-loop arrivals: sleep a Poisson gap, fire, never wait."""
    tenant = config.tenant_names()[tenant_index]
    rng = random.Random(f"{config.seed}:{tenant}")
    for job_index in range(config.jobs_per_tenant):
        await asyncio.sleep(rng.expovariate(config.rate_hz))
        jobs.append(asyncio.create_task(
            asyncio.wait_for(
                _one_job(config, tenant, tenant_index, job_index, records),
                timeout=config.job_timeout_s),
            name=f"loadgen-{tenant}-{job_index}"))


async def run_loadgen_async(config: LoadGenConfig) -> dict[str, Any]:
    """Drive the scenario and aggregate the BENCH report."""
    records: list[dict[str, Any]] = []
    jobs: list[asyncio.Task[None]] = []
    started = time.perf_counter()
    sources = [asyncio.create_task(
        _tenant_source(config, i, records, jobs),
        name=f"loadgen-source-{i}") for i in range(config.tenants)]
    await asyncio.gather(*sources)
    # A timed-out job raises TimeoutError here; its record (appended
    # before its first await) still says "error", which counts it once.
    await asyncio.gather(*jobs, return_exceptions=True)
    return _report(config, records, time.perf_counter() - started)


def run_loadgen(config: LoadGenConfig) -> dict[str, Any]:
    """Synchronous entry point (CLI and benchmarks)."""
    return asyncio.run(run_loadgen_async(config))


def _report(config: LoadGenConfig, records: list[dict[str, Any]],
            wall_s: float) -> dict[str, Any]:
    by_status: dict[str, int] = {}
    for record in records:
        by_status[record["status"]] = by_status.get(record["status"], 0) + 1
    completed = [r for r in records if r["status"] == "ok"]
    shed = by_status.get("shed", 0)
    submitted = len(records)
    latencies = [r["latency_s"] for r in completed]
    per_tenant: dict[str, dict[str, Any]] = {}
    for tenant in config.tenant_names():
        mine = [r for r in records if r["tenant"] == tenant]
        done = [r for r in mine if r["status"] == "ok"]
        per_tenant[tenant] = {
            "submitted": len(mine),
            "completed": len(done),
            "shed": sum(1 for r in mine if r["status"] == "shed"),
            "mean_latency_s": (round(sum(r["latency_s"] for r in done)
                                     / len(done), 6) if done else 0.0),
        }
    fairness = jain_index([float(t["completed"])
                           for t in per_tenant.values()])
    return {
        "bench": "serve_loadgen",
        "address": config.address,
        "tenants": config.tenants,
        "jobs_per_tenant": config.jobs_per_tenant,
        "rate_hz": config.rate_hz,
        "seed": config.seed,
        "wall_s": round(wall_s, 3),
        "submitted": submitted,
        "by_status": dict(sorted(by_status.items())),
        "completed": len(completed),
        "shed": shed,
        "failed": by_status.get("failed", 0),
        "errors": by_status.get("error", 0),
        "throughput_jobs_per_s": (round(len(completed) / wall_s, 4)
                                  if wall_s > 0 else 0.0),
        "shed_rate": round(shed / submitted, 4) if submitted else 0.0,
        "latency_s": {
            "p50": round(percentile(latencies, 50), 6),
            "p90": round(percentile(latencies, 90), 6),
            "p99": round(percentile(latencies, 99), 6),
            "mean": (round(sum(latencies) / len(latencies), 6)
                     if latencies else 0.0),
            "max": round(max(latencies), 6) if latencies else 0.0,
        },
        "fairness_jain": round(fairness, 4),
        "per_tenant": per_tenant,
    }
