#!/usr/bin/env python3
"""Model your own application and size a temporal prefetcher for it.

The workload generator is parameterised by the statistical properties
temporal prefetchers care about (see repro.workloads.base).  This
example models a hypothetical message broker — highly repetitive
delivery paths, a modest set of hot queues shared across consumers —
then (1) measures the temporal opportunity with Sequitur, (2) compares
the prefetcher family on the trace, and (3) sweeps Domino's EIT size to
find the knee (the Fig. 10 methodology applied to a new workload).

Run:  python examples/custom_workload.py
"""

from repro import SystemConfig, WorkloadConfig, make_prefetcher, simulate_trace
from repro.sequitur import analyze_sequence
from repro.sim.fastpath import build_l1_filter
from repro.workloads import generate_trace

BROKER = WorkloadConfig(
    name="message_broker",
    description="hypothetical queue broker: hot delivery paths, few scans",
    n_documents=1200,          # distinct delivery paths
    doc_length_mean=11.0,      # touches per delivery
    doc_length_min=5,
    zipf_alpha=0.9,            # a few very hot queues
    hot_pool_blocks=4096,      # queue descriptors shared across paths
    shared_frac=0.8,
    spatial_doc_frac=0.08,     # occasional log scans
    family_size=3,             # same queue head, different consumers
    interleave=2, switch_prob=0.2,
    truncation_prob=0.04, mutation_rate=0.02, noise_rate=0.05,
    dependent_frac=0.45,       # pointer-linked message headers
    pc_pool=256, pcs_per_doc=8, work_mean=35.0,
)

N_ACCESSES = 100_000
WARMUP = N_ACCESSES // 2


def main() -> None:
    config = SystemConfig()
    trace = generate_trace(BROKER, N_ACCESSES, seed=7)

    # 1. How much temporal opportunity is there at all?
    misses = build_l1_filter(trace.slice(WARMUP, len(trace)),
                             config).blocks.tolist()
    analysis = analyze_sequence(misses)
    print(f"misses in measured window: {analysis.total_misses}")
    print(f"temporal opportunity (Sequitur): {analysis.opportunity:.1%}, "
          f"mean stream length {analysis.mean_stream_length:.1f}\n")

    # 2. Which prefetcher fits?
    print(f"{'prefetcher':>12} {'coverage':>9} {'overpred':>9} {'accuracy':>9}")
    for name in ("vldp", "isb", "stms", "digram", "domino"):
        result = simulate_trace(trace, config, make_prefetcher(name, config),
                                warmup=WARMUP)
        print(f"{name:>12} {result.coverage:>9.1%} "
              f"{result.overprediction_ratio:>9.1%} {result.accuracy:>9.1%}")

    # 3. Size Domino's EIT for this workload (Fig. 10 methodology).
    print("\nDomino coverage vs EIT rows:")
    for rows in (1 << 8, 1 << 10, 1 << 12, 1 << 16):
        sized = config.scaled(eit_rows=rows)
        result = simulate_trace(trace, sized,
                                make_prefetcher("domino", sized),
                                warmup=WARMUP)
        print(f"  {rows:>7} rows: {result.coverage:.1%}")


if __name__ == "__main__":
    main()
