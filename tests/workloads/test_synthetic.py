"""Synthetic trace generator: determinism, structure, statistics."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sequitur.analysis import analyze_sequence
from repro.workloads.base import WorkloadConfig
from repro.workloads.server import get_workload
from repro.workloads.suite import WorkloadSuite
from repro.workloads.synthetic import SyntheticWorkload, generate_trace


class TestDeterminism:
    def test_same_seed_same_trace(self, tiny_workload):
        a = SyntheticWorkload(tiny_workload, seed=9).generate(2000)
        b = SyntheticWorkload(tiny_workload, seed=9).generate(2000)
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.pcs, b.pcs)

    def test_different_seed_different_trace(self, tiny_workload):
        a = SyntheticWorkload(tiny_workload, seed=9).generate(2000)
        b = SyntheticWorkload(tiny_workload, seed=10).generate(2000)
        assert not np.array_equal(a.blocks, b.blocks)

    def test_generation_seed_varies_replay_not_library(self, tiny_workload):
        workload = SyntheticWorkload(tiny_workload, seed=9)
        a = workload.generate(2000, seed=1)
        b = workload.generate(2000, seed=2)
        assert not np.array_equal(a.blocks, b.blocks)
        # Same document library: heavy address overlap.
        overlap = len(set(a.blocks.tolist()) & set(b.blocks.tolist()))
        assert overlap > 100


class TestStructure:
    def test_exact_length(self, tiny_workload):
        trace = generate_trace(tiny_workload, 1234, seed=1)
        assert len(trace) == 1234

    def test_trace_name_is_workload_name(self, tiny_workload):
        assert generate_trace(tiny_workload, 100).name == "tiny"

    def test_document_count_and_lengths(self, tiny_workload):
        workload = SyntheticWorkload(tiny_workload, seed=1)
        assert len(workload.documents) == tiny_workload.n_documents
        for doc in workload.documents:
            assert len(doc) >= tiny_workload.doc_length_min

    def test_family_heads_are_shared(self):
        config = WorkloadConfig(name="fam", n_documents=30, family_size=3,
                                family_prefix=2, doc_length_min=4,
                                doc_length_mean=6.0, spatial_doc_frac=0.0,
                                hot_pool_blocks=256)
        workload = SyntheticWorkload(config, seed=1)
        heads = [tuple(doc[:2]) for doc in workload.documents]
        # With families of 3, distinct heads are about a third of docs.
        assert len(set(heads)) <= 14

    def test_first_element_never_dependent(self, tiny_workload):
        workload = SyntheticWorkload(tiny_workload, seed=1)
        for deps in workload.doc_deps:
            assert deps[0] == 0

    def test_temporal_repetition_present(self, tiny_workload):
        trace = SyntheticWorkload(tiny_workload, seed=1).generate(8000)
        analysis = analyze_sequence(trace.blocks.tolist()[:4000])
        assert analysis.opportunity > 0.3

    def test_interleaving_preserves_length(self, tiny_workload):
        config = tiny_workload.scaled(interleave=3, switch_prob=0.3)
        trace = SyntheticWorkload(config, seed=1).generate(3000)
        assert len(trace) == 3000

    def test_bursty_works_distribution(self, tiny_workload):
        config = tiny_workload.scaled(mlp_cluster=5.0, work_mean=40.0)
        trace = SyntheticWorkload(config, seed=1).generate(5000)
        works = trace.works
        # Bimodal: many tiny gaps, some large ones; mean preserved-ish.
        assert (works <= 2).mean() > 0.5
        assert works.mean() == pytest.approx(40.0, rel=0.35)

    def test_invalid_n_accesses(self, tiny_workload):
        with pytest.raises(ConfigError):
            generate_trace(tiny_workload, 0)


class TestPerturbations:
    def test_zero_noise_zero_mutation_replays_exactly(self):
        config = WorkloadConfig(name="clean", n_documents=5,
                                doc_length_mean=6.0, doc_length_min=4,
                                truncation_prob=0.0, mutation_rate=0.0,
                                noise_rate=0.0, spatial_doc_frac=0.0,
                                hot_pool_blocks=64, family_size=1)
        workload = SyntheticWorkload(config, seed=1)
        trace = workload.generate(500)
        doc_blocks = {int(b) for doc in workload.documents for b in doc}
        assert set(trace.blocks.tolist()) <= doc_blocks

    def test_noise_injects_cold_addresses(self):
        config = WorkloadConfig(name="noisy", n_documents=5,
                                doc_length_mean=6.0, doc_length_min=4,
                                truncation_prob=0.0, mutation_rate=0.0,
                                noise_rate=0.5, spatial_doc_frac=0.0,
                                hot_pool_blocks=64, family_size=1)
        workload = SyntheticWorkload(config, seed=1)
        trace = workload.generate(500)
        doc_blocks = {int(b) for doc in workload.documents for b in doc}
        cold = [b for b in trace.blocks.tolist() if b not in doc_blocks]
        assert len(cold) > 50


def _trace_digest(trace) -> str:
    """First 16 hex digits of the SHA-256 over every field's dtype and bytes."""
    h = hashlib.sha256()
    for arr in (trace.blocks, trace.pcs, trace.deps, trace.works):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


# (workload, seed) -> (digest of ``trace(w, 3000)``, digest of the four
# ``core_traces(w, 1500)`` digests), recorded when document picks still
# called ``Generator.choice`` and replays were built as numpy arrays.
# Generation consumes one numpy Generator in a fixed call order; any
# change to that order, to a draw's size or to the post-processing moves
# these.  Standard mixes reuse ``WorkloadSuite.trace``, so they are
# covered too.
TRACE_PINS = {
    ("data_serving", 97): ("80b7182a4aa7c93a", "2556049ce3cdb9e0"),
    ("data_serving", 1234): ("45353f194547e278", "00bdf954b2662fa7"),
    ("mapreduce_c", 97): ("55440e830828c8b5", "7031aa480c86e2f4"),
    ("mapreduce_c", 1234): ("7c6d1732430564ec", "6705748bc6744323"),
    ("mapreduce_w", 97): ("33886ab9a47fb889", "86b65f6f09dddd07"),
    ("mapreduce_w", 1234): ("06283caa26f2d321", "17e1116fb3f186ab"),
    ("media_streaming", 97): ("04dac8cf904e7acc", "8b7985bc5bd5b667"),
    ("media_streaming", 1234): ("2090678b67c3aca0", "db0325f4d9d44290"),
    ("oltp", 97): ("8658b3138c137599", "2f0e391e98bb5bd1"),
    ("oltp", 1234): ("190aefec1206ac85", "079478ceeeb83f5c"),
    ("sat_solver", 97): ("5023a5756e6cb47a", "2e75689a7a4be27e"),
    ("sat_solver", 1234): ("c3c3383f183724a0", "1b475c72b47ad4ec"),
    ("web_apache", 97): ("78ea0b69b1f70e1d", "e6d0d59319cd0a75"),
    ("web_apache", 1234): ("351f07d65685fb2b", "b5d0a051407616ca"),
    ("web_search", 97): ("254aec4e2ad407b4", "f0954da387a98759"),
    ("web_search", 1234): ("f3550a0321169777", "d04f0024e8aafd8c"),
    ("web_zeus", 97): ("efe37074682016ff", "7c5d6ee717dd913b"),
    ("web_zeus", 1234): ("71d4d9ef46f9fece", "bf24bbf44a991dd6"),
}


@pytest.mark.parametrize(("name", "seed"), sorted(TRACE_PINS))
def test_generated_traces_pinned(name, seed):
    suite = WorkloadSuite(seed=seed)
    single = _trace_digest(suite.trace(name, 3000))
    cores = hashlib.sha256("".join(
        _trace_digest(t) for t in suite.core_traces(name, 1500)).encode())
    assert (single, cores.hexdigest()[:16]) == TRACE_PINS[name, seed]


@pytest.mark.parametrize("name", ["oltp", "media_streaming"])
def test_picker_draws_what_choice_draws(name):
    """The cached-CDF picker consumes the same random numbers as
    ``Generator.choice(p=...)`` and returns the same documents."""
    workload = SyntheticWorkload(get_workload(name), seed=5)
    n_docs = workload.config.n_documents
    rng, rng2 = np.random.default_rng(11), np.random.default_rng(11)
    for count in [1] * 2000 + [512]:
        picked = workload._pick_documents(rng, count)
        expected = rng2.choice(n_docs, size=count, p=workload._weights)
        assert np.array_equal(picked, expected)
    assert rng.random() == rng2.random()
