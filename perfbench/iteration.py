"""One benchmark iteration, run by ``run.py`` in a fresh process.

The process imports the program, creates an empty artifact store under
the scratch directory, plans the workload, then runs the workload's
experiments exactly as ``domino-repro run --jobs 2`` would and writes
one JSON record to ``--out``:

* ``setup_s``: from the parent's launch of this process (``--launched``,
  a ``time.monotonic`` reading, system-wide on Linux) to the moment the
  first experiment starts — interpreter start, imports, the scratch
  store and the cell list.  Trace generation belongs to ``wall_s``.
* ``wall_s``: the experiments themselves, from a cold store.
* ``cpu_s``: user+system CPU of this process and its joined pool
  workers.  (``peak_rss_mb`` is sampled from outside, by ``run.py``.)
* the results' digest, failed cells, leaked shared-memory segments,
  quarantined artifacts and range-check problems.

With ``--trace 1`` the layer wrappers are installed (and calibrated)
before setup ends, and the record also carries the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import repro
from repro.experiments.registry import run_experiment
from repro.runner import ExecutionPolicy, set_policy, shm
from repro.runner.store import ResultStore

from workloads import JOBS, WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported {repro.__file__}, not the checkout's src/")
    workload = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer(jobs=JOBS, dump_dir=scratch / "layers")
        tracer.calibrate()
        tracer.install()
    store_root = scratch / "store"
    store_root.mkdir(parents=True)  # fails unless the store starts empty
    # The CLI's `run` policy: cached in the (empty) scratch store, two
    # retries, failed cells degrade to partial results.
    set_policy(ExecutionPolicy(jobs=JOBS, use_cache=True, cache_dir=str(store_root),
                               retries=2, keep_going=True))
    plan = workload.plan(args.seed, tiny=args.tiny)

    begin = time.monotonic()
    setup_s = begin - args.launched
    if tracer is not None:
        tracer.reset()
    results = {exp: run_experiment(exp, plan.options)
               for exp in workload.experiments}
    wall_s = time.monotonic() - begin
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    prefix = f"{shm.SEGMENT_PREFIX}{os.getpid()}x"
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
        "operations": plan.operations,
        "accesses": plan.accesses,
        "failed_cells": sum(r.manifest.failed for r in results.values()
                            if r.manifest is not None),
        "leaked_segments": [s for s in shm.active_segments() if s.startswith(prefix)],
        "quarantined": ResultStore(store_root).stats().n_quarantined,
        "problems": workload.check(results, plan.options),
        "digest": digest(results),
        "headline": workload.headline(results),
        "config": {"n_accesses": plan.options.n_accesses,
                   "workloads": list(plan.options.workloads),
                   "experiments": list(workload.experiments), "jobs": JOBS},
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s)
        record["calibration"] = tracer.cost
        record["untraced_entry_points"] = tracer.missing
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
