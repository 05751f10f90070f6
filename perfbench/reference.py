"""One ungated full-size reference run of the whole reproduction.

Runs ``domino-repro run all --jobs 2`` at the default size (all nine
workloads, 200k accesses per trace) on an empty scratch artifact cache,
records each experiment's wall time as printed by the CLI, and maps
every experiment onto the benchmark workload whose host-cost path it
shares.  The result is a configuration record, not a gated metric: it
says how the end-to-end reproduction splits across the three paths the
benchmark's workloads stand for.

Usage, from the repository root::

    python3 perfbench/reference.py [--out perfbench/reference_run.json]

A run takes tens of minutes on a two-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import JOBS  # noqa: E402

#: Which benchmark workload stands for each experiment's host-cost path.
PATHS = {
    "coverage-grid": ("fig11", "fig13"),
    "timing-grid": ("fig14", "ext01", "ext02", "fig06"),
    "sensitivity-sweep": ("fig01", "fig02", "fig05", "fig09", "fig10",
                          "fig15", "fig16"),
    "not covered": ("fig03", "fig04", "fig12", "table1", "table2"),
}

_HEADER = re.compile(r"^\[(?P<id>[a-z0-9]+)\] ")
_ELAPSED = re.compile(r"^\((?P<s>[0-9.]+)s\)$")


def parse_walls(log: str) -> dict[str, float]:
    """Experiment id -> wall seconds, from ``run all`` table output."""
    walls: dict[str, float] = {}
    current = None
    for line in log.splitlines():
        header = _HEADER.match(line)
        if header and current is None:
            current = header.group("id")
            continue
        elapsed = _ELAPSED.match(line.strip())
        if elapsed and current is not None:
            walls[current] = float(elapsed.group("s"))
            current = None
    return walls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "reference_run.json"))
    parser.add_argument("--scratch", default=str(ROOT / ".perfbench-scratch" / "reference"))
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOMINO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, "-m", "repro.cli", "run", "all",
               "--jobs", str(JOBS), "--cache-dir", str(scratch / "cache")]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, check=False)
    total_s = time.perf_counter() - started
    (scratch / "run_all.log").write_text(proc.stdout + proc.stderr, encoding="utf-8")

    walls = parse_walls(proc.stdout)
    owner = {exp: path for path, exps in PATHS.items() for exp in exps}
    experiment_total = sum(walls.values())
    paths = {}
    for path, exps in PATHS.items():
        path_s = sum(walls.get(exp, 0.0) for exp in exps)
        paths[path] = {"wall_s": round(path_s, 1),
                       "share": round(path_s / experiment_total, 4)
                       if experiment_total else 0.0}
    record = {
        "command": f"domino-repro run all --jobs {JOBS}",
        "exit_code": proc.returncode,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "total_s": round(total_s, 1),
        "experiments_s": round(experiment_total, 1),
        "experiments": {exp: {"wall_s": wall, "path": owner.get(exp, "not covered")}
                        for exp, wall in walls.items()},
        "paths": paths,
        "gated": False,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(scratch / "cache", ignore_errors=True)
    print(json.dumps(paths, indent=2))
    return 0 if proc.returncode == 0 and len(walls) == len(owner) else 1


if __name__ == "__main__":
    sys.exit(main())
