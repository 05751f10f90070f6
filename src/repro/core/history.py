"""The off-chip History Table (HT).

A per-core circular buffer of triggering-event addresses, stored in main
memory in rows of one cache block (12 addresses per row in the paper's
configuration).  Positions are *global monotonic* sequence numbers; a
position falls off the table once it is more than ``capacity`` events in
the past, which models the circular overwrite.

The table is a list ring: position ``p`` lives in slot ``p % capacity``.
The list grows by one slot per append until it holds ``capacity``
entries (it is never preallocated: the paper's HT has 16M entries and
the unbounded variants 2^30), and from then on each append overwrites
the slot of the position that falls off.  A read costs the same at any
distance from the head.

Reads are row-granular: fetching the successors of position ``p`` pulls
whole rows, and the caller is told how many row fetches (off-chip block
transfers) were needed so metadata traffic can be charged faithfully.
"""

from __future__ import annotations


class HistoryTable:
    """Circular buffer of miss addresses with row-granular reads."""

    def __init__(self, capacity: int, row_entries: int = 12) -> None:
        if capacity <= 0 or row_entries <= 0:
            raise ValueError("capacity and row_entries must be positive")
        self.capacity = capacity
        self.row_entries = row_entries
        self._buf: list[int] = []
        self._next_pos = 0  # global position of the next append

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def next_position(self) -> int:
        """Global position the next appended event will occupy."""
        return self._next_pos

    @property
    def oldest_position(self) -> int:
        """Oldest global position still resident."""
        return self._next_pos - len(self._buf)

    def append(self, address: int) -> int:
        """Record a triggering event; returns its global position."""
        pos = self._next_pos
        if pos < self.capacity:
            self._buf.append(address)
        else:
            self._buf[pos % self.capacity] = address
        self._next_pos = pos + 1
        return pos

    def contains_position(self, pos: int) -> bool:
        """Is global position ``pos`` still resident (not overwritten)?"""
        return self.oldest_position <= pos < self._next_pos

    def read_at(self, pos: int) -> int | None:
        """Address recorded at global position ``pos``, if resident."""
        if not self.contains_position(pos):
            return None
        return self._buf[pos % self.capacity]

    def read_forward(self, pos: int, count: int) -> tuple[list[int], int]:
        """Addresses at positions [pos, pos+count), clipped to residency.

        Returns ``(addresses, row_fetches)`` where ``row_fetches`` is the
        number of distinct HT rows (cache blocks) the range spans — the
        off-chip cost of the read.
        """
        if count <= 0:
            return [], 0
        start = max(pos, self.oldest_position)
        stop = min(pos + count, self._next_pos)
        if stop <= start:
            return [], 0
        lo = start % self.capacity
        hi = lo + stop - start
        if hi <= self.capacity:
            addresses = self._buf[lo:hi]
        else:
            addresses = self._buf[lo:] + self._buf[:hi - self.capacity]
        first_row = start // self.row_entries
        last_row = (stop - 1) // self.row_entries
        return addresses, last_row - first_row + 1

    def successors(self, pos: int, count: int) -> tuple[list[int], int]:
        """Addresses *following* position ``pos`` (the replay stream)."""
        return self.read_forward(pos + 1, count)

    def row_of(self, pos: int) -> int:
        """Row number (HT block index) containing global position ``pos``."""
        return pos // self.row_entries
