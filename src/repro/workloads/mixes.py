"""Multiprogrammed workload mixes for the multicore timing model.

The paper runs homogeneous quad-core workloads (four cores of the same
server application).  Consolidated servers also run *mixes*; this
module builds per-core trace lists where each core runs a different
named workload, enabling heterogeneous contention studies on the same
shared-LLC/shared-bandwidth substrate (an extension experiment beyond
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnknownWorkloadError
from ..sim.trace import MemoryTrace
from .server import SERVER_WORKLOADS
from .suite import WorkloadSuite


@dataclass(frozen=True)
class WorkloadMix:
    """A named assignment of workloads to cores."""

    name: str
    per_core: tuple[str, ...]

    def __post_init__(self) -> None:
        unknown = [w for w in self.per_core if w not in SERVER_WORKLOADS]
        if unknown:
            raise UnknownWorkloadError(
                f"mix {self.name!r} references unknown workloads: {unknown}")


#: Ready-made four-core mixes spanning the behaviour space.
STANDARD_MIXES: dict[str, WorkloadMix] = {
    "web_tier": WorkloadMix(
        "web_tier", ("web_apache", "web_zeus", "web_search", "web_apache")),
    "data_tier": WorkloadMix(
        "data_tier", ("oltp", "data_serving", "oltp", "data_serving")),
    "analytics": WorkloadMix(
        "analytics", ("mapreduce_c", "mapreduce_w", "mapreduce_c", "sat_solver")),
    "consolidated": WorkloadMix(
        "consolidated", ("oltp", "web_apache", "media_streaming", "mapreduce_w")),
}


def get_mix(name: str) -> WorkloadMix:
    try:
        return STANDARD_MIXES[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown mix {name!r}; known: {', '.join(STANDARD_MIXES)}"
        ) from None


def mix_traces(mix: WorkloadMix | str, n_accesses_per_core: int,
               suite: WorkloadSuite | None = None,
               seed: int = 1234) -> list[MemoryTrace]:
    """Per-core traces for a mix, one independent seed per core."""
    if isinstance(mix, str):
        mix = get_mix(mix)
    suite = suite if suite is not None else WorkloadSuite(seed=seed)
    return [suite.trace(workload, n_accesses_per_core, seed=seed + 31 * core)
            for core, workload in enumerate(mix.per_core)]
