"""The reproduction's benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload coverage-grid --seed 1234 \\
        --seconds 30 --trace 0

Each run is a closed loop with one client: it launches one iteration
(``iteration.py``) in a fresh process with an empty scratch store,
waits for it, and launches the next until ``--seconds`` have passed.
Every iteration runs the workload's experiment set with the shipped
defaults and ``jobs=2``; the seed is ``ExperimentOptions.seed``.  While
an iteration runs, the summed proportional set size (PSS) of its
process tree is sampled every ``SAMPLE_S``; ``peak_rss_mb`` is the
largest sum.  PSS splits pages that processes share (copy-on-write
pages after the fork, shared-memory traces) among them, so the sum is
the resident memory the whole run holds, and a copy a worker makes
shows in full.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's iterations.  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer table of the median traced
iteration (see ``layers.py``) plus ``trace.overhead``.  Metric names,
their order and their units come from ``BENCHMARK.json``.

Outputs are checked: each iteration's digest over every experiment's
rows and series must equal the pinned digest (``digests.json``) when
the seed has one, and must agree across the run's iterations
otherwise.  A digest mismatch, a leaked ``/dev/shm`` segment, a
quarantined artifact or an out-of-range result fails all of the
iteration's operations (cells, or ``run_prefetcher`` calls in the
sweep); a failed or timed-out cell fails itself.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-scratch"
SPEC = ROOT / "BENCHMARK.json"

#: Seconds an iteration launched before ``--seconds`` ran out may take
#: to finish; it is killed, and counts as failed, after that.
ITERATION_CAP_S = 120.0

#: Interval of the memory sampler, in seconds.
SAMPLE_S = 0.05

MODEL_NOTE = "model unvalidated: no hardware reference in repo"


def _env() -> dict[str, str]:
    """The child environment: the checkout's sources, no DOMINO_* toggles.

    Bytecode writing is left on, as Python ships it: only the first
    iteration in a checkout compiles the sources, so ``setup_s`` times
    the program's set-up rather than the compiler.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DOMINO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _tree_pss_mb(pid: int) -> float:
    """Summed PSS of ``pid`` and its descendants, in MB (0 once gone)."""
    total_kb, todo = 0, [pid]
    while todo:
        proc = Path("/proc") / str(todo.pop())
        with contextlib.suppress(OSError, ValueError):
            for task in (proc / "task").iterdir():
                todo.extend(int(c) for c in (task / "children").read_text().split())
            with open(proc / "smaps_rollup", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
    return total_kb / 1024.0


def _wait_group_gone(pgid: int, timeout_s: float = 5.0) -> None:
    """Wait until no process of an iteration's group is left (the shm
    resource tracker outlives the iteration by a moment)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    _kill_group(pgid)


class Runner:
    """Launches iterations, each in its own scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.launches = 0
        #: Launches that crashed or timed out instead of writing a record.
        self.crashes = 0

    def launch(self, *flags: str, trace: int = 0) -> dict | None:
        """Run one iteration to completion: its record, or None on failure."""
        self.launches += 1
        work = self.scratch / f"it{self.launches}"
        work.mkdir(parents=True)
        out = work / "record.json"
        cmd = [sys.executable, str(HERE / "iteration.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--scratch", str(work), "--out", str(out), "--trace", str(trace),
               *flags]
        try:
            with open(work / "stderr.txt", "wb") as err:
                launched = time.monotonic()
                proc = subprocess.Popen(cmd + ["--launched", repr(launched)],
                                        cwd=ROOT, env=_env(),
                                        stdout=subprocess.DEVNULL, stderr=err,
                                        start_new_session=True)
                peak_mb = 0.0
                while True:
                    try:
                        proc.wait(timeout=SAMPLE_S)
                        break
                    except subprocess.TimeoutExpired:
                        peak_mb = max(peak_mb, _tree_pss_mb(proc.pid))
                    if time.monotonic() > self.deadline:
                        _kill_group(proc.pid)
                        proc.wait()
                        print(f"iteration {self.launches} timed out", file=sys.stderr)
                        break
                _wait_group_gone(proc.pid)
            if proc.returncode == 0 and out.is_file():
                record = json.loads(out.read_text(encoding="utf-8"))
                record["peak_rss_mb"] = peak_mb
                return record
            self.crashes += 1
            tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            print(f"iteration {self.launches} failed (exit {proc.returncode}):\n"
                  f"{tail[-2000:]}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _judge(records: list[dict], pinned: str | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over a run's completed iterations."""
    digests = {r["digest"] for r in records}
    attempted = failed = 0
    reasons = []
    for r in records:
        attempted += r["operations"]
        why = list(r["problems"])
        if pinned is not None and r["digest"] != pinned:
            why.append(f"digest {r['digest'][:16]} != pinned {pinned[:16]}")
        if pinned is None and len(digests) > 1:
            why.append(f"iterations disagree: {len(digests)} distinct digests")
        if r["leaked_segments"]:
            why.append(f"leaked shm segments {r['leaked_segments']}")
        if r["quarantined"]:
            why.append(f"{r['quarantined']} quarantined artifact(s)")
        if why:
            failed += r["operations"]
            reasons.extend(why)
        elif r["failed_cells"]:
            failed += r["failed_cells"]
            reasons.append(f"{r['failed_cells']} failed cell(s)")
    return attempted, failed, reasons


def src_lines() -> int:
    """Non-blank lines of Python under ``src/`` (configuration, ungated)."""
    total = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def end_to_end(runner: Runner, seconds: float, start: float) -> tuple[list[dict], dict, dict]:
    """Untraced iterations: (records, metrics, sample counts)."""
    records: list[dict] = []
    while not records or time.monotonic() - start < seconds:
        record = runner.launch()
        if record is None:
            break
        records.append(record)
    if not records:
        return [], {}, {}
    walls = [r["wall_s"] for r in records]
    median = statistics.median
    metrics = {
        "wall_s": median(walls),
        "sim_accesses_per_s": median([r["accesses"] / r["wall_s"] for r in records]),
        "cpu_s": median([r["cpu_s"] for r in records]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
        "setup_s": median([r["setup_s"] for r in records]),
    }
    samples = {"iterations": len(records),
               "wall_s_min": min(walls), "wall_s_max": max(walls)}
    return records, metrics, samples


def traced(runner: Runner, seconds: float, start: float) -> tuple[list[dict], dict, dict]:
    """Untraced/traced iteration pairs: (records, layer metrics, counts)."""
    plain: list[dict] = []
    layered: list[dict] = []
    while not layered or time.monotonic() - start < seconds:
        base = runner.launch()
        if base is None:
            break
        plain.append(base)
        record = runner.launch(trace=1)
        if record is None:
            break
        layered.append(record)
    if not layered:
        return plain, {}, {}
    layered.sort(key=lambda r: r["wall_s"])
    median = layered[(len(layered) - 1) // 2]
    metrics = dict(median["layers"])
    metrics["trace.overhead"] = (median["wall_s"]
                                 / statistics.median([r["wall_s"] for r in plain]) - 1)
    samples = {"untraced": len(plain), "traced": len(layered),
               "wrapper_ns_in_out": {v: [round(c * 1e9, 1) for c in pair]
                                     for v, pair in median["calibration"].items()},
               "untraced_entry_points": median["untraced_entry_points"]}
    return plain + layered, metrics, samples


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    start = time.monotonic()
    scratch = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    runner = Runner(args.workload, args.seed, scratch,
                    start + args.seconds + ITERATION_CAP_S)
    try:
        measure = traced if args.trace else end_to_end
        records, metrics, samples = measure(runner, args.seconds, start)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if not records or missing:
        print(f"error: no result (missing metrics: {missing})", file=sys.stderr)
        return 1

    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    attempted, failed, reasons = _judge(records, pinned)
    first = records[0]
    if runner.crashes:
        # A launch that wrote no record failed a whole iteration's worth.
        attempted += runner.crashes * first["operations"]
        failed += runner.crashes * first["operations"]
        reasons.append(f"{runner.crashes} launch(es) crashed or timed out")
    config = dict(first["config"], seed=args.seed, src_lines=src_lines(),
                  python=platform.python_version(), cpus=os.cpu_count())
    print(f"perfbench {args.workload} trace={args.trace}: closed loop, one client, "
          f"{json.dumps(samples)}")
    print(f"config {json.dumps(config)}")
    for m in declared:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations)")
    print(f"digest {first['digest']} "
          f"({'pinned' if pinned else 'unpinned seed: iterations must agree'})")
    print(f"headline {first['headline']} [{MODEL_NOTE}]")
    for reason in reasons:
        print(f"FAILED: {reason}")
    if samples.get("untraced_entry_points"):
        print(f"WARNING: entry points not found, their layers read 0: "
              f"{', '.join(samples['untraced_entry_points'])}")
    correct = failed == 0 and not reasons
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
