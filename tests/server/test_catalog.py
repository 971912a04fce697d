"""DatasetCatalog: registration, dedupe, eviction, append re-keying."""

from __future__ import annotations

import pytest

from repro.core.fastod import FastODConfig
from repro.datasets import make_dataset
from repro.deltalog import DeltaBatch
from repro.relation.fingerprint import fingerprint
from repro.server.catalog import CatalogError, DatasetCatalog
from tests.conftest import make_relation


@pytest.fixture
def catalog():
    return DatasetCatalog()


def append(catalog, entry, rows):
    """Append ``rows`` through the entry's engine (an insert-only
    delta) and re-key the entry, as the job scheduler does."""
    engine = entry.incremental
    engine.apply_delta(DeltaBatch.inserts(rows))
    return catalog.rekey_after_delta(entry, fingerprint(engine.relation))


def small(seed: int = 0):
    """Distinct ``seed`` -> distinct *rank structure* (the second
    column traces seed's bit pattern), hence distinct fingerprints —
    shifting all values uniformly would not change the encoding."""
    return make_relation(
        3, [(i, (seed >> i) & 1, 2) for i in range(4)])


class TestRegistration:
    def test_register_and_get(self, catalog):
        relation = small()
        entry = catalog.register(relation, name="tiny")
        assert entry.fingerprint == fingerprint(relation)
        assert catalog.get(entry.fingerprint) is entry
        assert entry.name == "tiny"
        assert len(catalog) == 1

    def test_same_content_dedupes(self, catalog):
        first = catalog.register(small())
        second = catalog.register(small())
        assert first is second
        assert len(catalog) == 1

    def test_unknown_fingerprint_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get("deadbeef")

    def test_empty_relation_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.register(make_relation(2, []))

    def test_entry_holds_warm_state(self, catalog):
        entry = catalog.register(small())
        assert entry.encoded is entry.relation.encode()
        assert entry.cache.relation is entry.encoded
        # the warm cache is usable immediately
        assert entry.cache.get(0b11).n_rows == 4

    def test_to_dict_is_json_shaped(self, catalog):
        entry = catalog.register(small(), name="x")
        rendered = entry.to_dict()
        assert rendered["n_rows"] == 4
        assert rendered["attributes"] == ["c0", "c1", "c2"]
        assert rendered["streaming"] is False


class TestEviction:
    def test_lru_eviction_by_byte_budget(self):
        one_entry_bytes = small(0).encode().rank_nbytes
        catalog = DatasetCatalog(
            max_resident_bytes=2 * one_entry_bytes)
        a = catalog.register(small(0))
        b = catalog.register(small(10))
        catalog.get(a.fingerprint)          # refresh a's recency
        catalog.register(small(20))         # over budget: b is LRU
        assert a.fingerprint in catalog
        assert b.fingerprint not in catalog
        assert catalog.evictions == 1
        with pytest.raises(CatalogError):
            catalog.get(b.fingerprint)

    def test_oversized_entry_still_registers(self):
        catalog = DatasetCatalog(max_resident_bytes=1)
        entry = catalog.register(small())
        assert catalog.get(entry.fingerprint) is entry

    @pytest.mark.parametrize("bound", [0, -1])
    def test_cache_bound_below_one_refused_at_construction(self, bound):
        with pytest.raises(ValueError, match="max_cached_partitions"):
            DatasetCatalog(max_cached_partitions=bound)

    def test_unbounded_never_evicts(self, catalog):
        for seed in range(1, 9):
            catalog.register(small(seed))
        assert len(catalog) == 8
        assert catalog.evictions == 0


class TestAppendRekey:
    def test_rekey_after_append(self, catalog):
        entry = catalog.register(small())
        old_fp = entry.fingerprint
        engine = catalog.ensure_incremental(old_fp, FastODConfig())
        new_fp = append(catalog, entry, [(7, 7, 2)])
        assert new_fp != old_fp
        assert new_fp == fingerprint(engine.relation)
        # old fingerprint forwards to the live entry
        assert catalog.get(old_fp) is entry
        assert catalog.get(new_fp) is entry
        assert entry.retired_from == [old_fp]
        assert entry.relation.n_rows == 5
        # the warm cache followed the grown encoding
        assert entry.cache.relation is entry.encoded
        entry.close()

    def test_incremental_engine_is_reused(self, catalog):
        entry = catalog.register(small())
        engine = catalog.ensure_incremental(entry.fingerprint,
                                            FastODConfig())
        again = catalog.ensure_incremental(entry.fingerprint,
                                           FastODConfig(max_level=1))
        assert again is engine       # config fixed at creation
        entry.close()

    def test_reregistered_snapshot_outranks_forward(self, catalog):
        """Re-registering a retired snapshot must resolve to the new
        live entry, not be shadowed by the append forward."""
        entry = catalog.register(small())
        old_fp = entry.fingerprint
        catalog.ensure_incremental(old_fp, FastODConfig())
        append(catalog, entry, [(7, 7, 2)])
        fresh = catalog.register(small())   # the original content again
        assert fresh is not entry
        assert catalog.get(old_fp) is fresh
        assert fresh.relation.n_rows == 4
        entry.close()

    def test_append_rechecks_the_byte_budget(self):
        base_bytes = small(0).encode().rank_nbytes
        catalog = DatasetCatalog(max_resident_bytes=3 * base_bytes)
        a = catalog.register(small(1))
        b = catalog.register(small(2))
        catalog.ensure_incremental(b.fingerprint, FastODConfig())
        for _ in range(3):
            append(catalog, b, [(9, 4, 2)] * 4)     # grow b past budget
        # the growing streaming entry pushed the total over budget;
        # the idle entry was evicted even though nothing registered
        assert a.fingerprint not in catalog
        assert b.fingerprint in catalog
        b.close()

    def test_pinned_entries_survive_eviction(self):
        base_bytes = small(0).encode().rank_nbytes
        catalog = DatasetCatalog(max_resident_bytes=2 * base_bytes)
        a = catalog.register(small(1))
        catalog.pin(a)
        b = catalog.register(small(2))
        catalog.register(small(3))      # over budget: b (unpinned) goes
        assert a.fingerprint in catalog
        assert b.fingerprint not in catalog
        catalog.unpin(a)
        catalog.register(small(4))      # now a is fair game
        assert a.fingerprint not in catalog

    def test_append_matches_fresh_registration(self, catalog):
        """Appending rows and registering the grown content directly
        land on the same fingerprint."""
        entry = catalog.register(small())
        catalog.ensure_incremental(entry.fingerprint, FastODConfig())
        new_fp = append(catalog, entry, [(9, 4, 2)])
        fresh = make_relation(3, [(0, 0, 2), (1, 0, 2), (2, 0, 2),
                                  (3, 0, 2), (9, 4, 2)])
        assert fingerprint(fresh) == new_fp
        entry.close()


class TestStats:
    def test_stats_shape(self, catalog):
        catalog.register(small())
        stats = catalog.stats()
        assert stats["entries"] == 1
        assert stats["resident_bytes"] > 0
        assert stats["evictions"] == 0

    def test_datasets_generate_distinct_fingerprints(self, catalog):
        fps = {
            catalog.register(make_dataset(
                "flight", n_rows=rows, n_attrs=4,
                seed=1)).fingerprint
            for rows in (50, 60, 70)
        }
        assert len(fps) == 3
