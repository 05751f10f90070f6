"""Multiprogrammed mixes."""

import pytest

from repro.errors import UnknownWorkloadError
from repro.workloads.mixes import (STANDARD_MIXES, WorkloadMix, get_mix,
                                   mix_traces)


def test_standard_mixes_are_four_core():
    for mix in STANDARD_MIXES.values():
        assert len(mix.per_core) == 4


def test_mix_validation_rejects_unknown_workload():
    with pytest.raises(UnknownWorkloadError):
        WorkloadMix("bad", ("oltp", "quake3", "oltp", "oltp"))


def test_get_mix_and_names():
    assert "consolidated" in STANDARD_MIXES
    assert get_mix("consolidated").per_core[0] == "oltp"
    with pytest.raises(UnknownWorkloadError):
        get_mix("nonexistent")


def test_mix_traces_builds_per_core_traces():
    traces = mix_traces("data_tier", 1500)
    assert len(traces) == 4
    assert [t.name for t in traces] == ["oltp", "data_serving",
                                        "oltp", "data_serving"]
    assert all(len(t) == 1500 for t in traces)


def test_same_workload_on_two_cores_gets_distinct_streams():
    import numpy as np

    traces = mix_traces("data_tier", 1500)
    assert not np.array_equal(traces[0].blocks, traces[2].blocks)


def test_mix_runs_on_multicore_sim(config):
    from repro.sim.multicore import simulate_multicore

    traces = mix_traces("consolidated", 1200)
    result = simulate_multicore(traces, config, "domino", warmup_frac=0.25)
    assert len(result.per_core) == 4
    assert result.ipc > 0
