"""History Table: circular residency, row-granular reads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryTable


class TestAppendAndResidency:
    def test_positions_are_monotonic(self):
        ht = HistoryTable(capacity=8, row_entries=4)
        assert [ht.append(i) for i in range(3)] == [0, 1, 2]

    def test_wraparound_drops_oldest(self):
        ht = HistoryTable(capacity=4, row_entries=2)
        for i in range(6):
            ht.append(i)
        assert ht.contains_position(0) is False
        assert ht.contains_position(2) is True
        assert ht.oldest_position == 2
        assert ht.read_at(2) == 2
        assert ht.read_at(1) is None

    def test_len_capped_at_capacity(self):
        ht = HistoryTable(capacity=4)
        for i in range(10):
            ht.append(i)
        assert len(ht) == 4


class TestReadForward:
    def test_reads_exact_range(self):
        ht = HistoryTable(capacity=64, row_entries=4)
        for i in range(10):
            ht.append(100 + i)
        addrs, rows = ht.read_forward(2, 5)
        assert addrs == [102, 103, 104, 105, 106]

    def test_row_fetch_counting(self):
        ht = HistoryTable(capacity=64, row_entries=4)
        for i in range(12):
            ht.append(i)
        # positions 2..6 span rows 0 and 1
        _, rows = ht.read_forward(2, 5)
        assert rows == 2
        # positions 4..7 lie in row 1 only
        _, rows = ht.read_forward(4, 4)
        assert rows == 1

    def test_clipped_to_written_region(self):
        ht = HistoryTable(capacity=64, row_entries=4)
        for i in range(5):
            ht.append(i)
        addrs, _ = ht.read_forward(3, 10)
        assert addrs == [3, 4]

    def test_clipped_to_oldest(self):
        ht = HistoryTable(capacity=4, row_entries=4)
        for i in range(8):
            ht.append(i)
        addrs, _ = ht.read_forward(0, 6)
        assert addrs == [4, 5]

    def test_empty_read(self):
        ht = HistoryTable(capacity=8)
        assert ht.read_forward(0, 0) == ([], 0)
        assert ht.read_forward(5, 3) == ([], 0)

    def test_successors_skips_anchor(self):
        ht = HistoryTable(capacity=64, row_entries=4)
        for i in range(5):
            ht.append(i * 10)
        addrs, _ = ht.successors(1, 2)
        assert addrs == [20, 30]

    def test_row_of(self):
        ht = HistoryTable(capacity=64, row_entries=12)
        assert ht.row_of(0) == 0
        assert ht.row_of(11) == 0
        assert ht.row_of(12) == 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            HistoryTable(0)
        with pytest.raises(ValueError):
            HistoryTable(4, row_entries=0)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(0, 1000), min_size=1, max_size=100),
       pos=st.integers(0, 120), count=st.integers(0, 20))
def test_read_forward_matches_slice_of_full_log(values, pos, count):
    """Whatever is resident must equal the corresponding suffix slice,
    also after the ring has wrapped around."""
    ht = HistoryTable(capacity=16, row_entries=4)
    for v in values:
        ht.append(v)
    addrs, _ = ht.read_forward(pos, count)
    oldest = max(len(values) - 16, 0)
    start = max(pos, oldest)
    stop = min(pos + count, len(values))
    expected = values[start:stop] if stop > start else []
    assert addrs == expected
    assert len(ht) == len(values) - oldest
    assert ht.oldest_position == oldest
    for p in range(-1, len(values) + 2):
        assert ht.read_at(p) == (values[p] if oldest <= p < len(values) else None)
