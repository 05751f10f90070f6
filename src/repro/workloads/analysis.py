"""Workload characterisation: the statistics behind the Table II knobs.

Given a generated trace (plus the system config for L1 filtering), this
module measures the properties the paper's discussion leans on —
misses per kilo-instruction, miss-stream repetitiveness, address reuse,
dependence density, spatial locality — so a workload configuration can
be validated against its intended character (tests do exactly that)
and users can characterise their own custom workloads before choosing
a prefetcher.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..memory.block import page_of
from ..sequitur.analysis import analyze_sequence
from ..sim.fastpath import build_l1_filter
from ..sim.trace import MemoryTrace


@dataclass(frozen=True)
class WorkloadProfile:
    """Measured characteristics of one trace under one system config."""

    name: str
    accesses: int
    instructions: int
    misses: int
    footprint_blocks: int
    miss_footprint_blocks: int
    mpki: float                 # L1-D misses per kilo-instruction
    miss_repetitiveness: float  # Sequitur opportunity of the miss stream
    mean_stream_length: float
    dependent_frac: float       # fraction of accesses flagged dependent
    page_locality: float        # fraction of misses in the same page as
                                # the previous miss (spatial signal)
    unique_pcs: int

    def summary(self) -> str:
        return (f"{self.name}: mpki={self.mpki:.1f} "
                f"repetitiveness={self.miss_repetitiveness:.1%} "
                f"streams~{self.mean_stream_length:.1f} "
                f"dependent={self.dependent_frac:.1%} "
                f"page-local={self.page_locality:.1%}")


def profile_trace(trace: MemoryTrace, config: SystemConfig | None = None,
                  max_sequitur_misses: int = 120_000) -> WorkloadProfile:
    """Characterise ``trace`` (L1-filtered under ``config``).

    ``max_sequitur_misses`` caps the grammar-inference input so very
    long traces stay cheap to profile; repetitiveness is estimated on
    the prefix beyond that length.
    """
    config = config if config is not None else SystemConfig()
    miss_blocks = build_l1_filter(trace, config).blocks.tolist()

    analysis = analyze_sequence(miss_blocks[:max_sequitur_misses])

    same_page = 0
    for prev, cur in zip(miss_blocks, miss_blocks[1:], strict=False):
        if page_of(prev) == page_of(cur):
            same_page += 1
    page_locality = same_page / (len(miss_blocks) - 1) if len(miss_blocks) > 1 else 0.0

    instructions = trace.instructions
    mpki = len(miss_blocks) / instructions * 1000 if instructions else 0.0

    return WorkloadProfile(
        name=trace.name,
        accesses=len(trace),
        instructions=instructions,
        misses=len(miss_blocks),
        footprint_blocks=trace.footprint_blocks,
        miss_footprint_blocks=len(set(miss_blocks)),
        mpki=mpki,
        miss_repetitiveness=analysis.opportunity,
        mean_stream_length=analysis.mean_stream_length,
        dependent_frac=float(trace.deps.mean()) if len(trace) else 0.0,
        page_locality=page_locality,
        unique_pcs=len(set(trace.pcs.tolist())),
    )
