"""Fastpath ↔ runner integration: shared filter artifacts, and runner
payloads equal to the per-access reference simulator's."""

import json

import numpy as np
import pytest

from repro import obs
from repro.config import SystemConfig
from repro.obs import names as obs_names
from repro.prefetchers.registry import make_prefetcher
from repro.runner import Cell, ExecutionPolicy, ResultStore, run_cells
from repro.runner import execute as execute_mod
from repro.sequitur.analysis import analyze_sequence
from repro.sim import fastpath
from repro.stats.streamstats import length_cdf
from repro.workloads.suite import WorkloadSuite

from ..sim.reference import ReferenceSimulator


@pytest.fixture(autouse=True)
def _fresh_fastpath_state():
    """Detach the executor from any store an earlier test pointed it at."""
    execute_mod.set_fastpath_root(None)
    yield
    execute_mod.set_fastpath_root(None)


def _grid():
    cells = [Cell(kind="trace", workload="oltp", prefetcher=name, degree=1)
             for name in ("baseline", "stms", "domino")]
    cells.append(Cell(kind="opportunity", workload="oltp"))
    return cells


def _reference_payloads(cells, options):
    """What each cell of ``cells`` must report, from the reference loop."""
    config = SystemConfig()  # the cells run the default config
    warmup = options.warmup
    suite = WorkloadSuite(seed=options.seed)
    payloads = []
    for cell in cells:
        trace = suite.trace(cell.workload, options.n_accesses)
        if cell.kind == "opportunity":
            window = trace.slice(warmup, len(trace))
            reference = ReferenceSimulator(config,
                                           make_prefetcher("baseline", config))
            reference.run(window)
            blocks = [block for _, block in reference.misses]
            analysis = analyze_sequence(blocks)
            payloads.append({
                "opportunity": analysis.opportunity,
                "n_misses": len(blocks),
                "mean_stream_length": analysis.mean_stream_length,
                "length_cdf": length_cdf(analysis.stream_lengths.lengths),
            })
            continue
        prefetcher = make_prefetcher(cell.prefetcher, config,
                                     degree=cell.degree)
        result = ReferenceSimulator(config, prefetcher).run(trace,
                                                            warmup=warmup)
        payloads.append({
            "coverage": result.coverage,
            "overprediction_ratio": result.overprediction_ratio,
            "accuracy": result.accuracy,
            "misses": result.metrics.misses,
            "prefetch_hits": result.metrics.prefetch_hits,
            "prefetches_issued": result.metrics.prefetches_issued,
            "accesses": result.metrics.accesses,
            "overpredictions": result.metrics.overpredictions,
            "triggering_events": result.metrics.triggering_events,
            "metadata_reads": result.metadata.reads,
            "metadata_writes": result.metadata.writes,
            "mean_stream_length": result.stream_lengths.mean_length,
        })
    return payloads


class TestFastpathToggleEquivalence:
    """The filtered replay the runner always takes, against the
    reference loop and across a store round trip."""

    def test_payloads_match_reference_simulator(self, tiny_options):
        payloads, _ = run_cells(_grid(), tiny_options,
                                ExecutionPolicy(use_cache=False))
        assert payloads == _reference_payloads(_grid(), tiny_options)

    def test_store_served_filter_equivalent(self, tiny_options, tmp_path):
        cache = tmp_path / "warm-store"
        first, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        # Same grid, warm store: the filters (and the cell artifacts)
        # come back from disk bit-identical.
        again, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        assert again == first


class TestFilterArtifacts:
    def test_filters_persisted_with_their_own_kind(self, tiny_options,
                                                   tmp_path):
        cache = tmp_path / "store"
        run_cells(_grid(), tiny_options,
                  ExecutionPolicy(use_cache=True, cache_dir=cache))
        kinds = [json.loads(p.read_text()).get("kind", "cell")
                 for p in cache.glob("v*/*/*.json")]
        # Full-trace filter + opportunity-window filter + 4 cell results.
        assert kinds.count("l1_filter") == 2
        assert kinds.count("cell") == 4

    def test_one_filter_shared_across_prefetcher_cells(self, tiny_options,
                                                       tmp_path):
        cache = tmp_path / "store"
        cells = [Cell(kind="trace", workload="oltp", prefetcher=name,
                      degree=degree)
                 for name in ("baseline", "vldp", "stms", "domino")
                 for degree in (1, 4)]
        run_cells(cells, tiny_options,
                  ExecutionPolicy(use_cache=True, cache_dir=cache))
        kinds = [json.loads(p.read_text()).get("kind", "cell")
                 for p in cache.glob("v*/*/*.json")]
        assert kinds.count("l1_filter") == 1  # 8 cells, one filter

    def test_no_cache_means_no_filter_writes(self, tiny_options, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("DOMINO_CACHE_DIR", str(tmp_path / "unused"))
        run_cells(_grid(), tiny_options, ExecutionPolicy(use_cache=False))
        assert not (tmp_path / "unused").exists()

    def test_filters_persist_binary_sidecars(self, tiny_options, tmp_path):
        cache = tmp_path / "store"
        run_cells(_grid(), tiny_options,
                  ExecutionPolicy(use_cache=True, cache_dir=cache))
        sidecars = list(cache.glob("v*/*/*.bin"))
        assert len(sidecars) == 2  # full-trace + opportunity-window filter
        for sidecar in sidecars:
            assert sidecar.read_bytes()[:6] == b"\x93NUMPY"


class TestCorruptFilterRecovery:
    """A filter the codec rejects is quarantined, reported, rebuilt."""

    def test_truncated_sidecar_quarantined_and_rebuilt(self, tiny_options,
                                                       tmp_path):
        cache = tmp_path / "store"
        first, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        sidecars = list(cache.glob("v*/*/*.bin"))
        assert sidecars
        for sidecar in sidecars:
            sidecar.write_bytes(sidecar.read_bytes()[:-16])
        # Drop the cached cell results so the cells really re-execute
        # and have to load (then reject) the corrupt filters.
        for envelope in cache.glob("v*/*/*.json"):
            if json.loads(envelope.read_text()).get("kind") != "l1_filter":
                envelope.unlink()
        obs.configure(level=obs.DEBUG)
        try:
            again, _ = run_cells(_grid(), tiny_options,
                                 ExecutionPolicy(use_cache=True,
                                                 cache_dir=cache))
            rejected = [e for e in obs.state().trace.events()
                        if e["event"] == obs_names.EVT_FASTPATH_FILTER_REJECTED]
        finally:
            obs.disable()
        assert again == first                 # rebuilt bit-identical
        assert rejected                       # the rejection was reported
        store = ResultStore(cache)
        assert store.stats().n_quarantined >= 2  # envelope + sidecar pairs
        assert list(cache.glob("v*/*/*.bin"))    # fresh sidecars re-persisted


    def test_flipped_sidecar_bit_quarantined_and_rebuilt(self, tiny_options,
                                                         tmp_path):
        cache = tmp_path / "store"
        clean, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        # Flip one bit in the last ``evicted`` value of the full-trace
        # filter (the larger of the two): same size, shape and dtype.
        sidecar = max(cache.glob("v*/*/*.bin"), key=lambda p: p.stat().st_size)
        data = bytearray(sidecar.read_bytes())
        data[-8] ^= 1
        sidecar.write_bytes(bytes(data))
        for envelope in cache.glob("v*/*/*.json"):
            if json.loads(envelope.read_text()).get("kind") != "l1_filter":
                envelope.unlink()
        again, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        assert again == clean
        # One filter quarantined, its envelope and sidecar together.
        store = ResultStore(cache)
        assert store.stats().n_quarantined == 2
        assert {p.stem for p in store.quarantine_dir.iterdir()} == {sidecar.stem}


class TestWindowedFilters:
    """Opportunity-style sliced-trace filters stay consistent through the
    store and agree with the full-trace filter on prefix windows."""

    def test_prefix_window_matches_full_filter_restriction(self, config,
                                                           tiny_trace):
        # Cache state at access i depends only on accesses < i, so the
        # filter of the (0, k) prefix must equal the full filter
        # restricted to indices < k — including the evicted blocks.
        full = fastpath.build_l1_filter(tiny_trace, config)
        k = len(tiny_trace) // 2
        prefix = fastpath.build_l1_filter(tiny_trace.slice(0, k), config)
        mask = full.indices < k
        for fname in ("indices", "pcs", "blocks", "evicted"):
            assert np.array_equal(getattr(prefix, fname),
                                  getattr(full, fname)[mask]), fname

    def test_windowed_filter_roundtrips_through_store(self, config,
                                                      tiny_trace, tmp_path):
        window = tiny_trace.slice(1500, len(tiny_trace))
        filt = fastpath.build_l1_filter(window, config)
        store = ResultStore(tmp_path / "cache")
        key = "aa" + "0" * 62
        payload, sidecar = fastpath.filter_to_binary(filt)
        store.put(key, payload, kind="l1_filter", sidecar=sidecar)
        served = store.get(key, kind="l1_filter")
        assert served is not None
        back = fastpath.filter_from_payload(served)
        assert back.n_accesses == filt.n_accesses
        for fname in ("indices", "pcs", "blocks", "evicted"):
            assert np.array_equal(getattr(back, fname),
                                  getattr(filt, fname)), fname
