#!/usr/bin/env python
"""Serve-tier saturation harness: overload honestly, degrade gracefully.

Boots a real :class:`~repro.serve.ExperimentServer` on a loopback
socket, measures one job's service time to calibrate the offered load,
then drives a seeded multi-tenant Poisson arrival process at a
configurable multiple of the server's capacity (default 4x).  The
claims under test are the PR's acceptance criteria:

* **bit identity** — a job fetched through the wire equals the same
  spec computed by ``run_cells`` in-process, payload for payload;
* **graceful overload** — every job is either completed or shed at
  admission (nothing fails, errors, or vanishes mid-run), and at 4x
  saturation shedding actually happens;
* **fairness** — the Jain index over the tenants' completions
  stays above ``--min-fairness`` (0.9).

Results go to a JSON report (``BENCH_PR6.json``) and the exit status
is non-zero if any gate fails, so CI can gate on it.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_PR6.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.runner import ExecutionPolicy, run_cells
from repro.serve import (AdmissionConfig, ExperimentServer, JobSpec,
                         LoadGenConfig, ServeClient, ServeConfig)
from repro.serve.loadgen import run_loadgen_async

#: Small but real work: service time is simulation, not framing.
BENCH_SPEC: dict[str, Any] = {
    "workload": "sat_solver",
    "prefetcher": "domino",
    "kind": "trace",
    "degrees": [1],
    "n_accesses": 4_000,
}


async def _check_bit_identity(server: ExperimentServer) -> bool:
    """Served payloads == batch payloads for one two-cell spec."""
    spec = {**BENCH_SPEC, "degrees": [1, 4], "seed": 977}
    async with await ServeClient.connect(server.address, "identity") as client:
        served = await client.run_job(spec, "identity-1")
    if served.status != "ok":
        return False
    cells, options = JobSpec.from_dict(spec).compile()
    batch, manifest = run_cells(cells, options,
                                ExecutionPolicy(jobs=1, use_cache=False))
    return manifest.failed == 0 and served.payloads == batch


async def _calibrate(server: ExperimentServer) -> float:
    """Median service time of a few solo jobs (empty server)."""
    samples = []
    async with await ServeClient.connect(server.address, "calib") as client:
        for i in range(3):
            result = await client.run_job(
                {**BENCH_SPEC, "seed": 5000 + i}, f"calib-{i}")
            if result.status != "ok":
                raise RuntimeError(f"calibration job {i}: {result.status} "
                                   f"{result.reason}")
            samples.append(result.service_s)
    return sorted(samples)[len(samples) // 2]


async def _bench(args: argparse.Namespace,
                 cache_dir: Path) -> dict[str, Any]:
    config = ServeConfig(
        port=0, slots=args.slots, cache_dir=cache_dir,
        admission=AdmissionConfig(
            max_queued_total=args.slots * 8,
            max_queued_per_tenant=4))
    server = ExperimentServer(config)
    await server.start()
    try:
        identical = await _check_bit_identity(server)
        service_s = await _calibrate(server)
        # Offered load = tenants * rate_hz jobs/s; capacity = slots /
        # service_s.  Solve rate_hz for the requested saturation.
        rate_hz = (args.saturation * args.slots
                   / (args.tenants * max(service_s, 1e-3)))
        loadgen = LoadGenConfig(
            address=server.address, tenants=args.tenants,
            jobs_per_tenant=args.jobs_per_tenant, rate_hz=rate_hz,
            spec=dict(BENCH_SPEC), seed=args.seed,
            job_timeout_s=args.job_timeout_s)
        started = time.perf_counter()
        report = await run_loadgen_async(loadgen)
        wall_s = time.perf_counter() - started
    finally:
        await server.aclose()

    accounted = report["completed"] + report["shed"] == report["submitted"]
    gates = {
        "bit_identical": identical,
        "no_errors": report["errors"] == 0,
        "no_failed": report["failed"] == 0,
        "all_accounted": accounted,
        "overload_reached": report["shed"] > 0,
        "fairness": report["fairness_jain"] >= args.min_fairness,
    }
    return {
        "benchmark": "serve_saturation",
        "spec": BENCH_SPEC,
        "slots": args.slots,
        "tenants": args.tenants,
        "jobs_per_tenant": args.jobs_per_tenant,
        "seed": args.seed,
        "saturation_target": args.saturation,
        "calibrated_service_s": round(service_s, 4),
        "rate_hz_per_tenant": round(rate_hz, 4),
        "wall_s": round(wall_s, 3),
        "min_fairness": args.min_fairness,
        "loadgen": report,
        "gates": gates,
        "pass": all(gates.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, default=2,
                        help="server worker slots")
    parser.add_argument("--tenants", type=int, default=4,
                        help="tenants sharing the server")
    parser.add_argument("--jobs-per-tenant", type=int, default=10)
    parser.add_argument("--saturation", type=float, default=4.0,
                        help="offered load as a multiple of capacity")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--min-fairness", type=float, default=0.9,
                        help="fail below this Jain index")
    parser.add_argument("--job-timeout-s", type=float, default=120.0)
    parser.add_argument("--out", default="BENCH_PR6.json",
                        help="JSON report path")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact store root (default: fresh temp dir)")
    args = parser.parse_args(argv)

    cache_dir = Path(args.cache_dir) if args.cache_dir else Path(
        tempfile.mkdtemp(prefix="bench-serve-"))
    print(f"serve bench: {args.slots} slots, {args.tenants} tenants x "
          f"{args.jobs_per_tenant} jobs at {args.saturation:g}x saturation")
    report = asyncio.run(_bench(args, cache_dir))
    load = report["loadgen"]
    print(f"service {report['calibrated_service_s']:.3f}s/job, offered "
          f"{report['rate_hz_per_tenant']:.2f} jobs/s/tenant")
    print(f"completed {load['completed']}/{load['submitted']}, shed "
          f"{load['shed']} (rate {load['shed_rate']:.2f}), p99 "
          f"{load['latency_s']['p99']:.3f}s, fairness "
          f"{load['fairness_jain']:.4f}")
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    failures = [name for name, ok in report["gates"].items() if not ok]
    if failures:
        print(f"FAIL: {', '.join(failures)} -> {args.out}", file=sys.stderr)
        return 1
    print(f"all gates pass -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
