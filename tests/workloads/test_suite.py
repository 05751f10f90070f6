"""WorkloadSuite caching and iteration."""

import numpy as np

from repro.workloads.suite import WorkloadSuite, default_suite


def test_default_suite_has_all_workloads():
    suite = default_suite()
    assert len(suite.names) == 9


def test_trace_memoisation(tiny_workload):
    suite = WorkloadSuite({"tiny": tiny_workload}, seed=1)
    a = suite.trace("tiny", 500)
    b = suite.trace("tiny", 500)
    assert a is b  # cached object
    c = suite.trace("tiny", 600)
    assert c is not a


def test_core_traces_distinct_but_same_library(tiny_workload):
    suite = WorkloadSuite({"tiny": tiny_workload}, seed=1)
    traces = suite.core_traces("tiny", 800, n_cores=4)
    assert len(traces) == 4
    assert not np.array_equal(traces[0].blocks, traces[1].blocks)
    shared = set(traces[0].blocks.tolist()) & set(traces[1].blocks.tolist())
    assert len(shared) > 50  # same hot documents


def test_falls_back_to_server_registry():
    suite = WorkloadSuite({}, seed=1)
    workload = suite.workload("oltp")
    assert workload.config.name == "oltp"
