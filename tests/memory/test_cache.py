"""Set-associative cache model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.memory.cache import Cache


def small_cache(sets=4, ways=2) -> Cache:
    return Cache(CacheConfig(size_bytes=sets * ways * 64, ways=ways))


class TestGeometry:
    def test_sets_and_blocks(self):
        cache = small_cache(sets=8, ways=2)
        assert cache.n_sets == 8
        assert cache.config.n_blocks == 16

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, ways=1)


class TestAccess:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True

    def test_conflict_eviction_within_set(self):
        cache = small_cache(sets=4, ways=2)
        # Blocks 0, 4, 8 all map to set 0 in a 4-set cache.
        cache.access(0)
        cache.access(4)
        cache.access(8)  # evicts 0 (LRU)
        assert cache.probe(0) is False
        assert cache.probe(4) is True
        assert cache.probe(8) is True

    def test_lru_promotion_on_hit(self):
        cache = small_cache(sets=4, ways=2)
        cache.access(0)
        cache.access(4)
        cache.access(0)  # promote 0
        cache.access(8)  # should evict 4
        assert cache.probe(0) is True
        assert cache.probe(4) is False

    def test_different_sets_do_not_conflict(self):
        cache = small_cache(sets=4, ways=1)
        for block in range(4):
            cache.access(block)
        assert all(cache.probe(b) for b in range(4))

    def test_stats_counting(self):
        cache = small_cache()
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)


class TestProbe:
    def test_probe_has_no_side_effects(self):
        cache = small_cache(sets=4, ways=2)
        cache.access(0)
        cache.access(4)
        cache.probe(0)  # must NOT promote 0
        cache.access(8)
        assert cache.probe(0) is False  # 0 was still LRU

    def test_contains_and_len(self):
        cache = small_cache()
        cache.access(7)
        assert 7 in cache
        assert len(cache) == 1


class TestNonPowerOfTwoSets:
    def test_modulo_indexing(self):
        cache = Cache(CacheConfig(size_bytes=3 * 2 * 64, ways=2))
        assert cache.n_sets == 3
        cache.access(0)
        cache.access(3)
        cache.access(6)  # all set 0; evicts block 0
        assert cache.probe(0) is False
        assert cache.probe(3) and cache.probe(6)


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_capacity_invariant_and_recent_block_resident(blocks):
    """The cache never exceeds capacity, and the last accessed block is
    always resident immediately afterwards."""
    cache = small_cache(sets=4, ways=2)
    for block in blocks:
        cache.access(block)
        assert cache.probe(block)
        assert len(cache) <= cache.config.n_blocks
    assert cache.stats.accesses == len(blocks)
    assert cache.stats.hits + cache.stats.misses == len(blocks)
