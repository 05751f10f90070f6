"""Metadata traffic counter tests."""

from repro.memory.metadata import MetadataTraffic


def test_aggregates():
    traffic = MetadataTraffic(index_reads=2, index_writes=1,
                              history_reads=3, history_writes=4)
    assert traffic.reads == 5
    assert traffic.writes == 5
    assert traffic.total == 10


def test_reset():
    traffic = MetadataTraffic(index_reads=5, history_reads=2)
    traffic.reset()
    assert traffic.total == 0
