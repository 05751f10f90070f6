"""End-to-end shape assertions: the paper's qualitative results must
hold on reduced-size runs of the real workload suite.

These are the repository's acceptance tests — if one fails after a
change, the reproduction no longer tells the paper's story.
"""

import pytest

from repro import SystemConfig, make_prefetcher, simulate_trace
from repro.sequitur.analysis import analyze_sequence
from repro.sim.fastpath import build_l1_filter
from repro.workloads import default_suite

N = 120_000
WARMUP = N // 2


@pytest.fixture(scope="module")
def suite():
    return default_suite()


@pytest.fixture(scope="module")
def config():
    return SystemConfig()


@pytest.fixture(scope="module")
def oltp_results(suite, config):
    trace = suite.trace("oltp", N)
    out = {}
    for name in ("vldp", "isb", "stms", "digram", "domino"):
        prefetcher = make_prefetcher(name, config, degree=1)
        out[name] = simulate_trace(trace, config, prefetcher, warmup=WARMUP)
    return out


class TestPaperShapeOltp:
    """OLTP is the paper's showcase workload (pointer chasing, shared
    stream heads): every headline relation must hold there."""

    def test_domino_beats_stms_coverage(self, oltp_results):
        assert oltp_results["domino"].coverage > oltp_results["stms"].coverage

    def test_stms_beats_digram_coverage(self, oltp_results):
        assert oltp_results["stms"].coverage > oltp_results["digram"].coverage * 0.9

    def test_temporal_beats_spatial(self, oltp_results):
        assert oltp_results["domino"].coverage > oltp_results["vldp"].coverage

    def test_digram_has_lowest_overpredictions(self, oltp_results):
        temporal = ("stms", "digram", "domino")
        assert min(temporal, key=lambda p: oltp_results[p].overprediction_ratio) \
            == "digram"

    def test_domino_overpredicts_less_than_stms(self, oltp_results):
        assert (oltp_results["domino"].overprediction_ratio
                < oltp_results["stms"].overprediction_ratio)


class TestPaperShapeDegree4:
    def test_stms_overpredictions_blow_up_at_degree4(self, suite, config):
        trace = suite.trace("oltp", N)
        deg1 = simulate_trace(trace, config, make_prefetcher("stms", config, degree=1),
                              warmup=WARMUP)
        deg4 = simulate_trace(trace, config, make_prefetcher("stms", config, degree=4),
                              warmup=WARMUP)
        assert deg4.overprediction_ratio > 1.5 * deg1.overprediction_ratio

    def test_domino_matches_or_beats_stms_at_degree4(self, suite, config):
        trace = suite.trace("oltp", N)
        stms = simulate_trace(trace, config, make_prefetcher("stms", config, degree=4),
                              warmup=WARMUP)
        domino = simulate_trace(trace, config,
                                make_prefetcher("domino", config, degree=4),
                                warmup=WARMUP)
        assert domino.coverage > stms.coverage - 0.01
        assert domino.overprediction_ratio < stms.overprediction_ratio


class TestOpportunity:
    def test_domino_captures_most_of_the_opportunity(self, suite, config):
        trace = suite.trace("oltp", N)
        misses = build_l1_filter(trace.slice(WARMUP, N), config).blocks.tolist()
        opportunity = analyze_sequence(misses).opportunity
        domino = simulate_trace(trace, config,
                                make_prefetcher("domino", config, degree=4),
                                warmup=WARMUP)
        assert domino.coverage > 0.5 * opportunity
        assert domino.coverage < opportunity + 0.1

    def test_sat_solver_is_hard_for_everyone(self, suite, config):
        trace = suite.trace("sat_solver", N)
        for name in ("stms", "domino"):
            result = simulate_trace(trace, config,
                                    make_prefetcher(name, config, degree=4),
                                    warmup=WARMUP)
            assert result.coverage < 0.25


class TestSpatioTemporalShape:
    def test_stack_covers_more_than_components(self, suite, config):
        trace = suite.trace("data_serving", N)
        vldp = simulate_trace(trace, config, make_prefetcher("vldp", config),
                              warmup=WARMUP)
        domino = simulate_trace(trace, config, make_prefetcher("domino", config),
                                warmup=WARMUP)
        combo = simulate_trace(trace, config,
                               make_prefetcher("vldp+domino", config),
                               warmup=WARMUP)
        assert combo.coverage > vldp.coverage
        assert combo.coverage > domino.coverage - 0.02
