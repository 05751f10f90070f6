"""Tiny-size self-test of the benchmark harness.

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks, exiting 0 only when all hold:

1. ``BENCHMARK.json`` stays within its format's limits: every name uses
   only ``[A-Za-z0-9_.-]`` and is unique, there are at most 16
   end-to-end and 128 per-layer metrics, bounds are at most 0.25 and
   ``setup_s`` has the largest.
2. The tracer's bookkeeping on a synthetic nested call tree: each
   function's self time is the busy time it spends itself, and nested
   time is counted once.
3. A tiny traced iteration of every workload reports exactly the
   declared per-layer metrics (``trace.overhead`` aside, which ``run.py``
   adds), the tracer found every entry point it wraps, its layers' self
   times plus tracer and unattributed time conserve the traced wall
   time, and no bucket is negative.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LAYERS, Tracer, conservation_error, layer_self_s  # noqa: E402
from run import SCRATCH, SPEC, Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    names = [m["name"] for m in e2e + per_layer] + [w["name"] for w in spec["workloads"]]
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    problems += [f"bad unit {m['unit']!r}" for m in e2e + per_layer
                 if not UNIT.match(m["unit"])]
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics (1-16 allowed)")
    if not 1 <= len(per_layer) <= 128:
        problems.append(f"{len(per_layer)} per-layer metrics (1-128 allowed)")
    bounds = {m["name"]: m["bound"] for m in e2e}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must be in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from workloads.py's")
    return problems


def _busy(seconds: float) -> float:
    """Spin for ``seconds``; return the time actually spent, which a
    preempted spin overshoots."""
    start = time.monotonic()
    end = start + seconds
    while (now := time.monotonic()) < end:
        pass
    return now - start


class _Inner:
    spent = 0.0

    def work(self) -> None:
        _Inner.spent += _busy(0.004)


class _Outer:
    spent = 0.0

    def run(self, inner: _Inner) -> None:
        _Outer.spent += _busy(0.010)
        inner.work()
        inner.work()


def check_nesting() -> list[str]:
    """Outer spins 10 ms itself around two nested 4 ms inner calls; each
    one's self time must match the time its own spins took."""
    _Inner.spent = _Outer.spent = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        tracer = Tracer(jobs=1, dump_dir=Path(tmp))
        tracer.calibrate(calls=20_000, rounds=3)
        tracer.wrap(_Outer, "run", "outer")
        tracer.wrap(_Inner, "work", "inner")
        start = time.monotonic()
        for _ in range(20):
            _Outer().run(_Inner())
        wall = time.monotonic() - start
    snap = tracer.snapshot()
    problems = []
    for key, want in (("outer", _Outer.spent), ("inner", _Inner.spent)):
        got = snap["tallies"][key][1]
        if abs(got - want) > 0.1 * want:
            problems.append(f"nested {key} self {got:.4f}s, expected ~{want:.4f}s")
    if not 0 <= wall - snap["root"] < 0.05 * wall:
        problems.append(f"uncovered time {wall - snap['root']:.4f}s of {wall:.4f}s")
    return problems


def check_traced(spec: dict) -> list[str]:
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead"}
    problems = []
    scratch = SCRATCH / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            runner = Runner(workload, 1234, scratch, time.monotonic() + 300)
            record = runner.launch("--tiny", trace=1)
            if record is None:
                problems.append(f"{workload}: tiny traced iteration failed")
                continue
            if record["untraced_entry_points"]:
                problems.append(f"{workload}: entry points not found: "
                                f"{record['untraced_entry_points']}")
            m = record["layers"]
            if set(m) != declared:
                problems.append(f"{workload}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(m) ^ declared)}")
                continue
            wall = m["trace.wall_s"]
            error = conservation_error(m)
            if error > 1e-6 * max(wall, 1.0):
                problems.append(f"{workload}: conservation off by {error:.3g}s")
            shares = sum(m[f"{layer}.share"] for layer in LAYERS)
            shares += m["tracer.share"] + m["unattributed.share"]
            if abs(shares - 1.0) > 1e-6:
                problems.append(f"{workload}: shares sum to {shares:.6f}")
            buckets = dict(layer_self_s(m), tracer=m["tracer.self_s"],
                           unattributed=m["unattributed.self_s"])
            # Calibration error may push a bucket a hair below zero.
            problems += [f"{workload}: {name} self time {value:.4f}s < 0"
                         for name, value in buckets.items() if value < -0.01 * wall]
            print(f"{workload}: traced wall {wall:.2f}s, conservation error "
                  f"{error:.2g}s, shares sum {shares:.6f}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return problems


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    problems = check_spec(spec) + check_nesting() + check_traced(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
