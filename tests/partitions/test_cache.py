"""Tests for the memoizing partition cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.partitions.cache import PartitionCache
from repro.partitions.partition import partition_from_columns
from repro.relation.schema import iter_bits
from tests.conftest import make_relation, random_relation, small_relations


class TestPartitionCache:
    def test_empty_mask(self):
        rel = make_relation(2, [(1, 2), (3, 4), (1, 2)])
        cache = PartitionCache(rel.encode())
        empty = cache.get(0)
        assert empty.canonical_form() == frozenset(
            {frozenset({0, 1, 2})})

    def test_memoized(self):
        rel = make_relation(2, [(1, 2), (1, 3)])
        cache = PartitionCache(rel.encode())
        assert cache.get(0b11) is cache.get(0b11)

    def test_get_attrs(self):
        rel = make_relation(3, [(1, 2, 3), (1, 2, 4)])
        cache = PartitionCache(rel.encode())
        assert cache.get_attrs([0, 1]) == cache.get(0b011)

    def test_preload_singletons(self):
        rel = make_relation(3, [(1, 2, 3)])
        cache = PartitionCache(rel.encode())
        cache.preload_singletons()
        assert len(cache) == 4  # {} plus three singletons

    @settings(max_examples=50, deadline=None)
    @given(small_relations(max_cols=4, max_rows=10, max_domain=2))
    def test_every_mask_matches_reference(self, relation):
        encoded = relation.encode()
        cache = PartitionCache(encoded)
        for mask in range(1 << encoded.arity):
            expected = partition_from_columns(encoded, iter_bits(mask))
            assert cache.get(mask) == expected, f"mask={mask:b}"


class TestLRUMode:
    def _encoded(self, arity=4, n_rows=40, seed=3):
        return random_relation(seed, arity, n_rows, domain=2).encode()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PartitionCache(self._encoded(), max_entries=0)

    def test_bounds_resident_composites(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded, max_entries=2)
        for mask in range(1, 1 << encoded.arity):
            cache.get(mask)
        # pinned: empty mask + arity singletons; composites: <= 2
        assert len(cache) <= 1 + encoded.arity + 2
        assert cache.evictions > 0

    def test_unbounded_default_unchanged(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded)
        for mask in range(1 << encoded.arity):
            cache.get(mask)
        assert cache.evictions == 0
        assert len(cache) == 1 << encoded.arity
        assert cache.get(0b1011) is cache.get(0b1011)

    def test_evicted_masks_recompute_correctly(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded, max_entries=1)
        for mask in range(1 << encoded.arity):
            expected = partition_from_columns(encoded, iter_bits(mask))
            assert cache.get(mask) == expected, f"mask={mask:b}"
        # second sweep hits recomputation, still correct
        for mask in range(1 << encoded.arity):
            expected = partition_from_columns(encoded, iter_bits(mask))
            assert cache.get(mask) == expected, f"mask={mask:b}"

    def test_lru_keeps_recently_used(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded, max_entries=2)
        first = cache.get(0b0011)
        cache.get(0b0101)       # cache: {0011, 0101}
        cache.get(0b0011)       # refresh 0011
        cache.get(0b0110)       # evicts 0101, not 0011
        assert cache.get(0b0011) is first

    def test_counters_bill_consumer_lookups_only(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded)
        cache.get(0b1111)
        # one consumer call == one miss, regardless of the internal
        # sub-mask derivations it triggered
        assert (cache.hits, cache.misses) == (0, 1)
        cache.get(0b1111)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_wide_miss_does_not_flush_hot_working_set(self):
        encoded = self._encoded(arity=5, n_rows=60)
        cache = PartitionCache(encoded, max_entries=3)
        hot_a, hot_b = 0b00011, 0b00101
        cache.get(hot_a)
        cache.get(hot_b)
        cache.get(0b11111)   # derives 3 intermediates + the final mask
        hits_before = cache.hits
        cache.get(hot_a)
        cache.get(hot_b)
        # the hot pair survived the wide derivation: both are hits
        assert cache.hits == hits_before + 2

    def test_internal_reuse_does_not_promote_scaffolding(self):
        encoded = self._encoded(arity=3, n_rows=60)
        cache = PartitionCache(encoded, max_entries=3)
        cache.get(0b011)
        cache.get(0b101)
        cache.get(0b110)     # cold: least recently used of the three
        cache.get(0b011)     # re-touch the hot pair
        cache.get(0b101)
        cache.get(0b111)     # derivation reuses resident 0b110
        hits_before = cache.hits
        cache.get(0b011)
        cache.get(0b101)
        # internal reuse of 0b110 must not have promoted it over the
        # hot pair; the requested 0b111 evicted cold 0b110 instead
        assert cache.hits == hits_before + 2

    def test_at_capacity_intermediates_cause_no_eviction_churn(self):
        encoded = self._encoded(arity=5, n_rows=60)
        cache = PartitionCache(encoded, max_entries=1)
        cache.get(0b00011)
        assert cache.evictions == 0
        cache.get(0b11111)   # 3 intermediates skipped, final evicts 1
        assert cache.evictions == 1
        assert len(cache) == 1 + encoded.arity + 1

    def test_hit_miss_counters(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded, max_entries=4)
        cache.get(0b0011)
        misses_after_first = cache.misses
        cache.get(0b0011)
        cache.get(0b0011)
        assert cache.misses == misses_after_first
        assert cache.hits >= 2
        stats = cache.stats()
        assert stats["max_entries"] == 4
        assert stats["hits"] == cache.hits
        assert stats["misses"] == cache.misses
        assert 0.0 < stats["hit_rate"] <= 1.0
        assert stats["resident"] == len(cache)

    def test_singletons_stay_pinned(self):
        encoded = self._encoded()
        cache = PartitionCache(encoded, max_entries=1)
        singles = [cache.get(1 << a) for a in range(encoded.arity)]
        for mask in range(1 << encoded.arity):
            cache.get(mask)
        for a, single in enumerate(singles):
            assert cache.get(1 << a) is single


class TestCacheHooks:
    """Whole-cache invalidation and the append path's rebase."""

    def _cache(self, rows=((1, 2), (1, 3), (4, 2))):
        rel = make_relation(2, list(rows))
        return rel.encode(), PartitionCache(rel.encode())

    def test_invalidate_all(self):
        encoded, cache = self._cache()
        cache.get(0b11)
        cache.get(0b01)
        cache.invalidate()
        assert len(cache) == 1       # only the empty-set pin remains
        # and everything is re-derivable
        assert cache.get(0b11) == partition_from_columns(encoded, [0, 1])

    def test_rebase_swaps_relation(self):
        rel = make_relation(2, [(1, 2), (1, 3)])
        cache = PartitionCache(rel.encode())
        cache.get(0b11)
        hits, misses = cache.hits, cache.misses
        grown = rel.append_rows([(1, 2)])
        cache.rebase(grown.encode())
        assert cache.n_rows == 3
        assert cache.hits == hits and cache.misses == misses
        assert cache.get(0b11) == partition_from_columns(
            grown.encode(), [0, 1])
        assert cache.get(0).n_rows == 3
