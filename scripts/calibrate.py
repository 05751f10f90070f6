#!/usr/bin/env python3
"""Calibration harness: run the full prefetcher comparison on every
workload and print the Fig. 11/13-style table plus the Sequitur
opportunity, so workload parameters can be tuned against the paper's
qualitative targets (see DESIGN.md §4).

Methodology mirrors the experiments: the first half of each trace warms
caches and (crucially) the sampled metadata tables; measurements cover
the second half.

Usage:
    python scripts/calibrate.py [n_accesses] [degree] [workload ...]
"""

import sys
import time

from repro import SystemConfig, make_prefetcher, simulate_trace, workload_names
from repro.sequitur import analyze_sequence
from repro.sim.fastpath import build_l1_filter
from repro.workloads import default_suite

PREFETCHERS = ["vldp", "isb", "stms", "digram", "domino"]


def main() -> None:
    n_accesses = int(sys.argv[1]) if len(sys.argv) > 1 else 400_000
    degree = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    names = sys.argv[3:] or workload_names()
    config = SystemConfig()
    suite = default_suite()
    warmup = n_accesses // 2

    header = f"{'workload':<16} {'events':>7} " + "".join(
        f"{p:>18}" for p in PREFETCHERS) + f"{'sequitur':>22}"
    print(header)
    print("-" * len(header))
    for name in names:
        t0 = time.time()
        trace = suite.trace(name, n_accesses)
        misses = build_l1_filter(trace.slice(warmup, n_accesses),
                                 config).blocks.tolist()
        cells = []
        for pf_name in PREFETCHERS:
            pf = make_prefetcher(pf_name, config, degree=degree)
            r = simulate_trace(trace, config, pf, warmup=warmup)
            cells.append(f"{r.coverage:5.1%}/{r.overprediction_ratio:6.1%}")
        seq = analyze_sequence(misses)
        cells.append(f"{seq.opportunity:5.1%} len={seq.mean_stream_length:4.1f}")
        print(f"{name:<16} {len(misses):>7} " + "".join(f"{c:>18}" for c in cells)
              + f"   ({time.time()-t0:.0f}s)")


if __name__ == "__main__":
    main()
