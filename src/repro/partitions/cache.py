"""A memoizing partition store keyed by attribute-set bitmask.

FASTOD builds each lattice level from the one below and keeps no
cache; this one serves the consumers that need Π*_X for ad-hoc
attribute sets — validators, the violation detector, the executors'
mask-named scans, the incremental re-check and the service catalog.

Two retention modes:

* **Unbounded** (default, ``max_entries=None``): every partition ever
  computed stays resident — the historical behavior, right for sweeps
  that revisit every mask.
* **LRU** (``max_entries=k``): at most ``k`` composite partitions stay
  resident; the least recently used is evicted first.  Single-attribute
  partitions and Π over the empty set are pinned — they are the
  building blocks every derivation chain ends in, and re-deriving a
  evicted composite only costs products against pinned entries.

Both modes count hits and misses (:attr:`hits` / :attr:`misses` /
:meth:`stats`) so consumers can see whether their access pattern
amortizes.  Counters tick once per :meth:`PartitionCache.get` call;
the internal sub-mask derivations a miss triggers are not billed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional

from repro.obs import metrics
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation
from repro.relation.schema import mask_of_indices

_LOOKUPS = metrics.counter(
    "repro_partition_cache_lookups_total",
    "Consumer-level partition cache lookups, by outcome",
    ("outcome",))
_EVICTIONS = metrics.counter(
    "repro_partition_cache_evictions_total",
    "Composite partitions evicted from LRU-bounded caches")


class PartitionCache:
    """Lazily computes and memoizes stripped partitions per bitmask.

    Partitions for composite sets are derived by refining the partition
    of the set minus its lowest attribute with that attribute's
    single-column partition, so each mask costs one linear product.
    """

    def __init__(self, relation: EncodedRelation,
                 max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be a positive integer")
        self._relation = relation
        self._max_entries = max_entries
        # pinned entries: the empty mask now, singleton masks on demand
        self._pinned: Dict[int, StrippedPartition] = {
            0: StrippedPartition.single_class(relation.n_rows)
        }
        # composite entries, in least-recently-used-first order
        self._store: "OrderedDict[int, StrippedPartition]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    @property
    def n_rows(self) -> int:
        return self._relation.n_rows

    def get(self, mask: int) -> StrippedPartition:
        """Return Π*_X for the attribute-set bitmask ``mask``.

        Hit/miss counters are incremented here only — one tick per
        consumer lookup — never inside the recursive derivation, so
        ``stats()`` reflects the caller's access pattern rather than
        internal sub-mask traffic.
        """
        found = self._lookup(mask, touch=True)
        if found is not None:
            self.hits += 1
            _LOOKUPS.inc(outcome="hit")
            return found
        self.misses += 1
        _LOOKUPS.inc(outcome="miss")
        return self._materialize(mask)

    def _lookup(self, mask: int,
                touch: bool) -> Optional[StrippedPartition]:
        """Resident partition for ``mask``, or ``None``.

        ``touch`` refreshes LRU recency — true only for consumer-level
        lookups; internal derivation reuse must not promote scaffolding
        masks over the consumer's hot entries."""
        found = self._pinned.get(mask)
        if found is not None:
            return found
        found = self._store.get(mask)
        if found is not None and touch and self._max_entries is not None:
            self._store.move_to_end(mask)
        return found

    def _materialize(self, mask: int,
                     requested: bool = True) -> StrippedPartition:
        """Compute and store Π*_X, deriving absent sub-masks
        recursively (uncounted).

        In LRU mode, derivation scaffolding must not displace the
        consumer's hot working set: intermediate sub-masks are only
        stored while there is spare capacity (at the cold end, so they
        evict first), and looking one up does not refresh its recency.
        Only the mask the consumer actually asked for earns fresh
        recency, and only its insertion may evict.
        """
        found = self._lookup(mask, touch=requested)
        if found is not None:
            return found
        low = mask & -mask
        if mask == low:
            partition = StrippedPartition.for_attribute(
                self._relation, low.bit_length() - 1)
            self._pinned[mask] = partition
            return partition
        partition = self._materialize(mask ^ low, requested=False).product(
            self._materialize(low, requested=False))
        if self._max_entries is None or requested:
            self._store[mask] = partition
            if (self._max_entries is not None
                    and len(self._store) > self._max_entries):
                self._store.popitem(last=False)
                self.evictions += 1
                _EVICTIONS.inc()
        elif len(self._store) < self._max_entries:
            self._store[mask] = partition
            self._store.move_to_end(mask, last=False)
        return partition

    def invalidate(self) -> None:
        """Drop every cached partition (stale once the relation
        changes).  Hit/miss counters are preserved; invalidations are
        not billed as evictions."""
        self._pinned = {
            0: StrippedPartition.single_class(self._relation.n_rows)
        }
        self._store.clear()

    def rebase(self, relation: EncodedRelation) -> None:
        """Point the cache at a grown relation, dropping stale entries.

        The coarse-grained invalidation hook for consumers that hold a
        long-lived cache across appends (e.g. a detector re-checking
        rules after each batch): swap in the re-encoded relation and
        start partitions fresh, keeping the hit/miss history."""
        self._relation = relation
        self.invalidate()

    def get_attrs(self, attributes: Iterable[int]) -> StrippedPartition:
        """Convenience overload taking attribute indices."""
        return self.get(mask_of_indices(attributes))

    def preload_singletons(self) -> None:
        """Eagerly compute all single-attribute partitions."""
        for attribute in range(self._relation.arity):
            self.get(1 << attribute)

    def stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters and current residency."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "resident": len(self),
            "max_entries": self._max_entries,
        }

    def __len__(self) -> int:
        return len(self._pinned) + len(self._store)
