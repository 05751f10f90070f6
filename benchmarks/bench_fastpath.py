#!/usr/bin/env python
"""Fastpath gates: filter-build speed, shm trace handoff, cancel overhead.

Three measurement groups, one JSON report and one exit status CI can
gate on:

* **hot_path** — the L1-filter build: the closed-form 2-way kernel
  (:func:`~repro.sim.fastpath.build_l1_filter`) against the scalar
  ``Cache`` pass (:func:`~repro.sim.fastpath.build_l1_filter_scalar`)
  on one workload's trace.  The two filters must be identical, and the
  scalar/kernel wall ratio is gated by ``--min-hotpath-speedup``.
* **shm** — a fig11-style grid (workloads × paper prefetchers trace
  cells, plus one opportunity cell per workload) pooled with
  shared-memory trace handoff against a serial pass that regenerates
  every trace in-process: identical payloads, and zero leaked
  ``/dev/shm`` segments from this process after both passes.
* **cancel_overhead** — an uncancelled
  :class:`~repro.cancel.CancelToken` attached to a serial, cache-free
  pass of the grid's trace cells through the engine's event path:
  identical payloads, full progress metering, and a checkpoint
  overhead gated by ``--max-cancel-overhead`` (default 2%), so
  lifecycle instrumentation can never quietly tax or perturb the loop.
  The gated overhead is the token calls the pass makes, times the
  per-call cost of ``CancelToken.checkpoint`` timed in a tight loop,
  over the plain pass's CPU time: a difference of two whole-pass walls
  would gate host noise, not the checkpoints.  That wall pair is still
  reported, ungated.
* **cancel_overhead_timing** — the same probe and gate over one
  quad-core ``multicore`` cell (Domino on oltp, timing config), the
  cycle model's path through the same event path: every core
  checkpoints and meters its own accesses.

Usage::

    PYTHONPATH=src python benchmarks/bench_fastpath.py \
        --jobs 2 --n 30000 --out bench_fastpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.cancel import CancelToken
from repro.config import SystemConfig
from repro.experiments.common import ExperimentOptions
from repro.experiments.fig11_degree1 import build_cells
from repro.runner import Cell, ExecutionPolicy, run_cells, shm
from repro.runner import execute as execute_mod
from repro.runner.cells import cell_config
from repro.sim import fastpath
from repro.workloads.suite import WorkloadSuite


def _reset_process_caches() -> None:
    """Forget every in-process memo so a pass starts cold.

    Worker processes are forked from this one, so anything memoised
    here (generated traces) would leak into both passes and blur the
    comparison.
    """
    execute_mod._SUITES.clear()
    execute_mod.set_fastpath_root(None)
    execute_mod.set_trace_share(None)


def _wall(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _measure_hot_path(options: ExperimentOptions, repeats: int = 7) -> dict:
    """Scalar ``Cache`` pass vs. closed-form 2-way kernel, one trace.

    The two builds alternate ``repeats`` times and each keeps its best
    wall: the kernel takes ~10 ms, so a single host hiccup would
    otherwise decide the ratio.
    """
    config = SystemConfig()
    workload = options.workloads[0]
    trace = WorkloadSuite(seed=options.seed).trace(workload,
                                                  options.n_accesses)
    scalar_s = kernel_s = float("inf")
    for _ in range(repeats):
        scalar_s = min(scalar_s, _wall(
            lambda: fastpath.build_l1_filter_scalar(trace, config)))
        kernel_s = min(kernel_s, _wall(
            lambda: fastpath.build_l1_filter(trace, config)))
    filt = fastpath.build_l1_filter(trace, config)
    reference = fastpath.build_l1_filter_scalar(trace, config)
    builds_equal = all(
        np.array_equal(getattr(filt, f), getattr(reference, f))
        for f in ("indices", "pcs", "blocks", "evicted"))
    return {
        "workload": workload,
        "n_accesses": options.n_accesses,
        "n_misses": filt.n_misses,
        "build_scalar_s": round(scalar_s, 4),
        "build_kernel_s": round(kernel_s, 4),
        "builds_equal": builds_equal,
        "speedup": round(scalar_s / kernel_s, 2) if kernel_s else float("inf"),
    }


def _measure_shm(cells, options: ExperimentOptions, jobs: int) -> dict:
    """Pooled grid with shared-memory trace handoff vs. a serial pass."""
    prefix = f"{shm.SEGMENT_PREFIX}{os.getpid()}x"

    def leaked() -> list[str]:
        return [n for n in shm.active_segments() if n.startswith(prefix)]

    walls, payloads = {}, {}
    for label, pass_jobs in (("serial", 1), ("pooled", jobs)):
        _reset_process_caches()
        started = time.perf_counter()
        payloads[label], manifest = run_cells(
            cells, options, ExecutionPolicy(jobs=pass_jobs, use_cache=False))
        walls[label] = round(time.perf_counter() - started, 4)
        if manifest.failed:
            raise RuntimeError(f"{label} pass cell failed")
    remaining = leaked()
    return {
        "jobs": jobs,
        "wall_s": walls,
        "equivalent": payloads["pooled"] == payloads["serial"],
        "leaked_segments": remaining,
        "leak_free": not remaining,
    }


class _CountingToken(CancelToken):
    """An uncancelled token that counts the working side's calls into
    it; a ``checkpoint`` counts once, not also as the two calls it
    makes itself."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def checkpoint(self, n: int) -> None:
        self.calls += 1
        CancelToken.advance(self, n)
        CancelToken.raise_if_cancelled(self)

    def advance(self, n: int) -> None:
        self.calls += 1
        super().advance(n)

    def raise_if_cancelled(self) -> None:
        self.calls += 1
        super().raise_if_cancelled()


def _checkpoint_cost_s(calls: int = 200_000, rounds: int = 5) -> float:
    """Best-of-``rounds`` per-call CPU cost of ``CancelToken.checkpoint``
    on an uncancelled token, the dearest of the working-side calls."""
    token = CancelToken()
    checkpoint = token.checkpoint
    best = float("inf")
    for _ in range(rounds):
        started = time.process_time()
        for _ in range(calls):
            checkpoint(1)
        best = min(best, time.process_time() - started)
    return best / calls


def _measure_cancel_overhead(cells: list[Cell], options: ExperimentOptions,
                             expected: int, repeats: int = 5) -> dict:
    """Cost of cancellation checkpoints in the event path.

    Cancel tokens are only consulted on the serial path (the pool
    polls the token between results instead of shipping it), so the
    probe is a serial, cache-free pass of ``cells``, whose metered pass
    must publish ``expected`` simulated accesses.  The gated
    ``overhead_pct`` is ``calls * checkpoint cost / plain CPU``: the
    token calls one metered pass makes, each charged the per-call cost
    of ``checkpoint`` timed in a tight loop, over the best plain pass's
    CPU time.  The plain and metered walls alternate ``repeats`` times,
    swapping which runs first, and their best-of ratio is kept as the
    ungated ``wall_overhead_pct``.
    """
    policy = ExecutionPolicy(jobs=1, use_cache=False)

    def timed_pass(token):
        _reset_process_caches()
        started = time.perf_counter()
        cpu_started = time.process_time()
        payloads, manifest = run_cells(cells, options, policy, cancel=token)
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - started
        if manifest.failed:
            raise RuntimeError("cancel-overhead probe cell failed")
        return wall, cpu, payloads

    walls = {"plain": float("inf"), "metered": float("inf")}
    plain_cpu_s = float("inf")
    payloads: dict[str, list] = {}
    equivalent = True
    calls = 0
    for rep in range(repeats):
        order = ("plain", "metered") if rep % 2 == 0 else ("metered", "plain")
        for variant in order:
            token = _CountingToken() if variant == "metered" else None
            wall, cpu, payloads[variant] = timed_pass(token)
            walls[variant] = min(walls[variant], wall)
            if token is None:
                plain_cpu_s = min(plain_cpu_s, cpu)
                continue
            if token.progress != expected:
                raise RuntimeError(
                    f"metered pass published {token.progress} accesses, "
                    f"expected {expected}")
            calls = token.calls
        equivalent = equivalent and payloads["plain"] == payloads["metered"]
    per_call_s = _checkpoint_cost_s()
    plain_s, metered_s = walls["plain"], walls["metered"]
    wall_pct = (metered_s / plain_s - 1.0) * 100.0 if plain_s else 0.0
    overhead_pct = (100.0 * calls * per_call_s / plain_cpu_s
                    if plain_cpu_s else 0.0)
    return {
        "cells": len(cells),
        "token_calls": calls,
        "checkpoint_ns": round(per_call_s * 1e9, 1),
        "plain_cpu_s": round(plain_cpu_s, 4),
        "overhead_pct": round(overhead_pct, 6),
        "plain_s": round(plain_s, 4),
        "metered_s": round(metered_s, 4),
        "wall_overhead_pct": round(wall_pct, 4),
        "equivalent": equivalent,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="oltp,web_apache,media_streaming",
                        help="comma-separated workload names")
    parser.add_argument("--n", type=int, default=60_000,
                        help="accesses per trace")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes of the pooled shm pass")
    parser.add_argument("--degree", type=int, default=1,
                        help="prefetch degree of the shm grid's trace cells")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", default="bench_fastpath.json",
                        help="JSON report path")
    parser.add_argument("--min-hotpath-speedup", type=float, default=2.0,
                        help="fail below this scalar/kernel filter-build "
                             "wall ratio")
    parser.add_argument("--max-cancel-overhead", type=float, default=2.0,
                        help="fail if an uncancelled token's checkpoint "
                             "calls cost more than this percentage of "
                             "the serial pass's CPU time")
    args = parser.parse_args(argv)

    options = ExperimentOptions(
        n_accesses=args.n, seed=args.seed,
        workloads=tuple(w.strip() for w in args.workloads.split(",")
                        if w.strip()))
    cells = build_cells(options, args.degree)

    hot_path = _measure_hot_path(options)
    print(f"filter build: scalar {hot_path['build_scalar_s']:.4f}s, "
          f"kernel {hot_path['build_kernel_s']:.4f}s "
          f"-> {hot_path['speedup']:.2f}x "
          f"(equal={hot_path['builds_equal']})")

    shm_report = _measure_shm(cells, options, args.jobs)
    print(f"shm handoff ({len(cells)} cells, jobs={args.jobs}): "
          f"serial {shm_report['wall_s']['serial']:.2f}s, "
          f"pooled {shm_report['wall_s']['pooled']:.2f}s, "
          f"equivalent={shm_report['equivalent']}, "
          f"leak_free={shm_report['leak_free']}")

    trace_cells = [c for c in build_cells(options, degree=1)
                   if c.kind == "trace"]
    timing_cell = Cell(kind="multicore", workload="oltp", prefetcher="domino",
                       config_name="timing")
    probes = {
        "trace": _measure_cancel_overhead(
            trace_cells, options, len(trace_cells) * options.n_accesses),
        "timing": _measure_cancel_overhead(
            [timing_cell], options,
            cell_config(timing_cell).n_cores * options.per_core_accesses),
    }
    for label, cancel in probes.items():
        print(f"cancel checkpoints ({label}): {cancel['token_calls']} calls x "
              f"{cancel['checkpoint_ns']:.0f} ns over "
              f"{cancel['plain_cpu_s']:.2f}s CPU = "
              f"{cancel['overhead_pct']:.4f}% (walls, ungated: plain "
              f"{cancel['plain_s']:.2f}s, metered {cancel['metered_s']:.2f}s, "
              f"{cancel['wall_overhead_pct']:+.2f}%)")

    failures = []
    if not hot_path["builds_equal"]:
        failures.append("2-way kernel filter differs from the scalar pass")
    if hot_path["speedup"] < args.min_hotpath_speedup:
        failures.append(f"filter-build speedup {hot_path['speedup']:.2f}x "
                        f"below {args.min_hotpath_speedup:g}x")
    if not shm_report["equivalent"]:
        failures.append("shm trace handoff perturbed payloads")
    if not shm_report["leak_free"]:
        failures.append(f"leaked shm segments {shm_report['leaked_segments']}")
    for label, cancel in probes.items():
        if not cancel["equivalent"]:
            failures.append(f"metered {label} payloads differ from unmetered")
        if cancel["overhead_pct"] > args.max_cancel_overhead:
            failures.append(f"{label} cancel-checkpoint overhead "
                            f"{cancel['overhead_pct']:.4f}% above "
                            f"{args.max_cancel_overhead:g}%")

    report = {
        "benchmark": "fastpath_gates",
        "workloads": list(options.workloads),
        "n_accesses": args.n,
        "degree": args.degree,
        "seed": args.seed,
        "jobs": args.jobs,
        "hot_path": hot_path,
        "min_hotpath_speedup": args.min_hotpath_speedup,
        "shm": shm_report,
        "cancel_overhead": probes["trace"],
        "cancel_overhead_timing": probes["timing"],
        "max_cancel_overhead_pct": args.max_cancel_overhead,
        "pass": not failures,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{'FAIL' if failures else 'pass'} -> {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
