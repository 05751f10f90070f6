"""Workload suite: trace caching across experiments.

Every figure in the paper sweeps the same nine workloads, and most
experiments want the very same trace (same workload, length, seed) so
results are comparable across prefetchers.  :class:`WorkloadSuite`
memoises generated traces keyed by (name, length, seed).

Every trace a cell generates — single-core, per-core and mix — passes
through :meth:`WorkloadSuite.trace`, so that is where generation
honours the thread's :class:`~repro.cancel.CancelToken`: a cancelled
or expired job stops before its next generation.
"""

from __future__ import annotations

from ..cancel import current_token
from ..sim.trace import MemoryTrace
from .base import WorkloadConfig
from .server import SERVER_WORKLOADS, get_workload
from .synthetic import SyntheticWorkload


class WorkloadSuite:
    """A set of workload configs plus a trace cache."""

    def __init__(self, configs: dict[str, WorkloadConfig] | None = None,
                 seed: int = 1234) -> None:
        self.configs = dict(configs) if configs is not None else dict(SERVER_WORKLOADS)
        self.seed = seed
        self._workloads: dict[str, SyntheticWorkload] = {}
        self._traces: dict[tuple[str, int, int], MemoryTrace] = {}

    @property
    def names(self) -> list[str]:
        return list(self.configs)

    def workload(self, name: str) -> SyntheticWorkload:
        """Instantiated (document library built) workload, memoised."""
        if name not in self._workloads:
            config = self.configs.get(name) or get_workload(name)
            self._workloads[name] = SyntheticWorkload(config, seed=self.seed)
        return self._workloads[name]

    def trace(self, name: str, n_accesses: int, seed: int | None = None) -> MemoryTrace:
        """Generated trace, memoised by (name, length, seed).

        A miss first checks the current cancel token (raising
        :class:`~repro.errors.JobCancelled`); it meters no progress,
        because generation simulates no accesses.
        """
        eff_seed = self.seed if seed is None else seed
        key = (name, n_accesses, eff_seed)
        if key not in self._traces:
            cancel = current_token()
            if cancel is not None:
                cancel.raise_if_cancelled()
            self._traces[key] = self.workload(name).generate(n_accesses, seed=eff_seed)
        return self._traces[key]

    def core_traces(self, name: str, n_accesses: int,
                    n_cores: int = 4) -> list[MemoryTrace]:
        """Per-core traces for the multicore timing simulation: every
        core runs the same application (same document library) over its
        own request stream (distinct generation seeds)."""
        return [self.trace(name, n_accesses, seed=self.seed + 1000 + core)
                for core in range(n_cores)]


def default_suite(seed: int = 1234) -> WorkloadSuite:
    """The nine paper workloads with the default seed."""
    return WorkloadSuite(seed=seed)
