"""The synthetic temporal-correlated trace generator.

Generative model
----------------

A workload owns a library of *temporal documents*: short sequences of
block addresses that recur during execution (the paper's "streams",
which exist because programs consist of loops).  The trace is produced
by repeatedly sampling a document (Zipf-weighted, so some sequences are
hot) and replaying it with perturbations:

* **truncation** — the replay may stop early, producing the short-stream
  distribution of Fig. 12;
* **mutation** — an element may be substituted, degrading repetitiveness
  (high for SAT Solver, whose dataset is generated on the fly);
* **noise** — cold random accesses interleave with the replay.

Crucially, documents draw a configurable fraction of their addresses
from a *shared hot pool*, so the same block address appears inside many
different documents.  That is exactly the first-order ambiguity the
paper identifies: a single miss address cannot distinguish two streams
that begin with (or pass through) the same address, so STMS picks wrong
streams while two-address lookups disambiguate.

PCs come from a small pool shared across documents, reproducing the
paper's observation that PC localisation breaks global temporal
correlation in server code.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, TraceError
from ..sim.trace import MemoryTrace
from .base import WorkloadConfig

# Offset separating hot-pool block numbers from cold dataset blocks so
# noise/mutation addresses never collide with document addresses.
_COLD_BASE = 1 << 40


class SyntheticWorkload:
    """Instantiated document library for one workload + seed.

    Instantiation is separated from generation so tests can inspect the
    document library, and so several traces (e.g. the four cores of the
    multicore run) can be drawn from the *same* library — the cores of a
    server run the same binary over the same hot structures.
    """

    def __init__(self, config: WorkloadConfig, seed: int = 1234) -> None:
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._hot_pool = self._build_hot_pool(rng)
        self.documents, self.doc_pcs, self.doc_deps = self._build_documents(rng)
        self._weights = self._zipf_weights(rng)
        # Generator.choice(p=w) normalises w.cumsum() the same way and
        # returns cdf.searchsorted(random(size), side="right"), so picks
        # from this cached CDF equal choice's, from the same draws.
        cdf = self._weights.cumsum()
        self._cdf = cdf / cdf[-1]

    # -- construction ---------------------------------------------------
    def _build_hot_pool(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        # Spread hot blocks over the dataset so they do not alias into a
        # few cache sets.
        pool = rng.choice(cfg.dataset_blocks, size=cfg.hot_pool_blocks, replace=False)
        return pool.astype(np.int64)

    def _doc_length(self, rng: np.random.Generator) -> int:
        cfg = self.config
        # Geometric with the configured mean, floored at the minimum.
        mean_excess = max(cfg.doc_length_mean - cfg.doc_length_min, 0.01)
        return cfg.doc_length_min + int(rng.geometric(1.0 / (1.0 + mean_excess)) - 1)

    def _build_documents(
        self, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Create the document library, grouped into families.

        A family shares its first ``family_prefix`` addresses across
        ``family_size`` variants and diverges afterwards.  Shared heads
        are what defeat a single-address lookup: the last occurrence of
        the head in the global history belongs to whichever variant ran
        most recently.
        """
        cfg = self.config
        docs: list[np.ndarray] = []
        pcs: list[np.ndarray] = []
        deps: list[np.ndarray] = []
        family_head: np.ndarray | None = None
        family_pcs: np.ndarray | None = None
        family_left = 0
        for _ in range(cfg.n_documents):
            length = self._doc_length(rng)
            spatial = rng.random() < cfg.spatial_doc_frac
            if spatial:
                elements = self._spatial_document(rng, length)
                family_left = 0  # spatial runs do not join families
            else:
                elements = self._temporal_document(rng, length)
            doc_pc_count = min(cfg.pcs_per_doc, length)
            doc_pc_set = rng.integers(0, cfg.pc_pool, size=doc_pc_count)
            pc_seq = doc_pc_set[np.arange(length) % doc_pc_count].astype(np.int64)
            if not spatial and cfg.family_size > 1:
                if family_left <= 0:
                    # This document founds a new family.
                    family_head = elements[: cfg.family_prefix].copy()
                    family_pcs = pc_seq[: cfg.family_prefix].copy()
                    family_left = cfg.family_size
                else:
                    # Variant: same head addresses, executed by the same
                    # instructions, diverging afterwards.
                    if family_head is None or family_pcs is None:
                        raise TraceError(
                            "family_left > 0 before any family head was founded")
                    elements[: len(family_head)] = family_head
                    pc_seq[: len(family_pcs)] = family_pcs
                family_left -= 1
            dep_seq = (rng.random(length) < cfg.dependent_frac).astype(np.int8)
            dep_seq[0] = 0  # a stream head cannot depend on a prior miss
            docs.append(elements)
            pcs.append(pc_seq)
            deps.append(dep_seq)
        return docs, pcs, deps

    def _temporal_document(self, rng: np.random.Generator, length: int) -> np.ndarray:
        cfg = self.config
        from_pool = rng.random(length) < cfg.shared_frac
        elements = np.where(
            from_pool,
            self._hot_pool[rng.integers(0, len(self._hot_pool), size=length)],
            rng.integers(0, cfg.dataset_blocks, size=length),
        )
        return elements.astype(np.int64)

    def _spatial_document(self, rng: np.random.Generator, length: int) -> np.ndarray:
        cfg = self.config
        blocks_per_page = 64
        length = min(length, blocks_per_page)
        page = int(rng.integers(0, max(cfg.dataset_blocks // blocks_per_page, 1)))
        start = int(rng.integers(0, blocks_per_page - length + 1))
        base = page * blocks_per_page + start
        return np.arange(base, base + length, dtype=np.int64)

    def _zipf_weights(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        ranks = np.arange(1, cfg.n_documents + 1, dtype=np.float64)
        weights = ranks ** (-cfg.zipf_alpha)
        rng.shuffle(weights)  # decouple popularity from creation order
        return weights / weights.sum()

    # -- generation -------------------------------------------------------
    def generate(self, n_accesses: int, seed: int | None = None) -> MemoryTrace:
        """Emit a trace of (at least) ``n_accesses`` accesses.

        The replay loop appends whole (possibly truncated) document
        replays until the target length is reached, then trims.
        """
        if n_accesses <= 0:
            raise ConfigError("n_accesses must be positive")
        cfg = self.config
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)

        if cfg.interleave > 1:
            blocks, pcs, deps = self._generate_interleaved(rng, n_accesses)
        else:
            blocks, pcs, deps = self._generate_sequential(rng, n_accesses)
        works = self._generate_works(rng, n_accesses)
        return MemoryTrace(pcs=pcs, blocks=blocks, deps=deps, works=works,
                           name=cfg.name)

    def _generate_works(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Instruction gaps; bursty when ``mlp_cluster`` > 1.

        Burst members follow each other within a couple of instructions
        (so independent misses overlap in the ROB); burst leaders carry
        a proportionally longer gap so the mean instructions-per-access
        stays at ``work_mean``.
        """
        cfg = self.config
        if cfg.mlp_cluster <= 1.0:
            return rng.poisson(cfg.work_mean, size=n).astype(np.int32)
        leader_prob = 1.0 / cfg.mlp_cluster
        leaders = rng.random(n) < leader_prob
        long_gaps = rng.poisson(cfg.work_mean * cfg.mlp_cluster, size=n)
        short_gaps = rng.integers(0, 3, size=n)
        return np.where(leaders, long_gaps, short_gaps).astype(np.int32)

    def _pick_documents(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self._cdf.searchsorted(rng.random(count), side="right")

    def _generate_sequential(
        self, rng: np.random.Generator, n_accesses: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replays run back to back (single-context execution)."""
        cfg = self.config
        out_blocks: list[int] = []
        out_pcs: list[int] = []
        out_deps: list[int] = []
        # Draw document choices in batches to amortise rng overhead.
        batch = max(256, n_accesses // max(int(cfg.doc_length_mean), 1) // 4)
        while len(out_blocks) < n_accesses:
            for doc_id in self._pick_documents(rng, batch).tolist():
                blocks, pcs, deps = self._replay_document(rng, doc_id)
                out_blocks.extend(blocks)
                out_pcs.extend(pcs)
                out_deps.extend(deps)
                if len(out_blocks) >= n_accesses:
                    break
        return (np.asarray(out_blocks[:n_accesses], dtype=np.int64),
                np.asarray(out_pcs[:n_accesses], dtype=np.int64),
                np.asarray(out_deps[:n_accesses], dtype=np.int8))

    def _generate_interleaved(
        self, rng: np.random.Generator, n_accesses: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``interleave`` contexts replay concurrently, emitting bursts.

        A server's global miss sequence is the interleaving of many
        request handlers; burst length follows a geometric distribution
        with mean ``1/switch_prob``.
        """
        cfg = self.config
        out_blocks: list[int] = []
        out_pcs: list[int] = []
        out_deps: list[int] = []
        # Each live context: [blocks, pcs, deps, cursor].
        contexts: list[list] = []
        while len(out_blocks) < n_accesses:
            while len(contexts) < cfg.interleave:
                doc_id = int(self._pick_documents(rng, 1)[0])
                contexts.append([*self._replay_document(rng, doc_id), 0])
            ctx = contexts[rng.integers(len(contexts))]
            burst = int(rng.geometric(cfg.switch_prob))
            blocks, pcs, deps, cursor = ctx
            stop = min(cursor + burst, len(blocks))
            out_blocks.extend(blocks[cursor:stop])
            out_pcs.extend(pcs[cursor:stop])
            out_deps.extend(deps[cursor:stop])
            if stop >= len(blocks):
                contexts.remove(ctx)
            else:
                ctx[3] = stop
        return (np.asarray(out_blocks[:n_accesses], dtype=np.int64),
                np.asarray(out_pcs[:n_accesses], dtype=np.int64),
                np.asarray(out_deps[:n_accesses], dtype=np.int8))

    def _replay_document(
        self, rng: np.random.Generator, doc_id: int
    ) -> tuple[list[int], list[int], list[int]]:
        """One perturbed replay of document ``doc_id``, as lists of
        blocks, PCs and dependence flags."""
        cfg = self.config
        length = len(self.documents[doc_id])

        # Truncation: geometric stopping point.
        if cfg.truncation_prob > 0.0:
            keep = int(rng.geometric(cfg.truncation_prob))
            length = min(length, max(keep, 1))
        blocks = self.documents[doc_id][:length].tolist()
        pcs = self.doc_pcs[doc_id][:length].tolist()
        deps = self.doc_deps[doc_id][:length].tolist()

        # Mutation: substitute random cold addresses in place.
        if cfg.mutation_rate > 0.0:
            mutate = np.flatnonzero(rng.random(length) < cfg.mutation_rate)
            if len(mutate):
                cold = rng.integers(0, cfg.dataset_blocks, size=len(mutate))
                for i, block in zip(mutate.tolist(), cold.tolist()):
                    blocks[i] = _COLD_BASE + block

        # Noise: interleave cold accesses before randomly chosen elements.
        if cfg.noise_rate > 0.0:
            noisy = np.flatnonzero(rng.random(length) < cfg.noise_rate)
            if len(noisy):
                cold = rng.integers(0, cfg.dataset_blocks, size=len(noisy))
                noise_pcs = rng.integers(0, cfg.pc_pool, size=len(noisy))
                # From the back, so each insert leaves earlier indices valid.
                for i, block, pc in reversed(list(zip(
                        noisy.tolist(), cold.tolist(), noise_pcs.tolist()))):
                    blocks.insert(i, _COLD_BASE + block)
                    pcs.insert(i, pc)
                    deps.insert(i, 0)

        return blocks, pcs, deps


def generate_trace(config: WorkloadConfig, n_accesses: int,
                   seed: int = 1234) -> MemoryTrace:
    """Convenience wrapper: instantiate the workload and generate a trace."""
    return SyntheticWorkload(config, seed=seed).generate(n_accesses)
