"""The dataset catalog: fingerprint-keyed resident relations.

A long-lived OD service cannot afford to re-read, re-encode, and
re-partition a relation on every request the way the one-shot CLI
does.  :class:`DatasetCatalog` keeps registered relations *warm*:

* every relation is keyed by its content fingerprint
  (:func:`repro.relation.fingerprint`) — registering byte-equivalent
  data twice lands on the same entry, so tenants uploading the same
  table share encodings, partitions, and cached results;
* each :class:`CatalogEntry` holds the raw :class:`Relation`, its
  rank :class:`~repro.relation.encoding.EncodedRelation` (encoded once
  at registration), and a warm
  :class:`~repro.partitions.cache.PartitionCache` reused by every
  validate/violations job against the entry;
* entries for streaming tenants lazily grow an
  :class:`~repro.incremental.IncrementalFastOD` engine; appends route
  through it, so repeated batches pay delta maintenance instead of
  re-discovery, and the entry is *re-keyed* under the grown relation's
  fingerprint (the old snapshot no longer exists — its key is retired
  and forwarded);
* residency is bounded by a byte budget over the encoded rank columns
  (``max_resident_bytes``): least-recently-*used* entries are evicted
  first, streaming entries included (their incremental engines are
  closed on the way out).  The entry being registered or touched is
  never the eviction victim, and neither is a *pinned* entry — the
  scheduler pins the entry a job is running against, so eviction
  (which fires on HTTP handler threads) can never close an engine the
  runner thread is using.

Thread safety: every public method takes the catalog lock, so HTTP
handler threads and the job-runner thread can share one catalog.  The
heavyweight objects handed out (relations, caches, engines) are then
used *only* by the single job-runner thread — the scheduler serialises
job execution, which is what makes sharing one partition cache
safe.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.core.fastod import FastODConfig
from repro.errors import ReproError
from repro.obs import metrics
from repro.partitions.cache import PartitionCache
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation

_REGISTRATIONS = metrics.counter(
    "repro_catalog_registrations_total",
    "Dataset registrations, by whether the entry was created or reused",
    ("outcome",))
_EVICTIONS = metrics.counter(
    "repro_catalog_evictions_total",
    "Catalog entries evicted to stay under the byte budget")
_ENTRIES = metrics.gauge(
    "repro_catalog_entries",
    "Resident catalog entries")
_RESIDENT_BYTES = metrics.gauge(
    "repro_catalog_resident_bytes",
    "Encoded rank-column bytes resident across catalog entries")


class CatalogError(ReproError):
    """A registration or catalog operation the catalog rejects."""


class UnknownFingerprintError(CatalogError):
    """No resident entry answers to this fingerprint (HTTP 404)."""


class CatalogEntry:
    """One resident relation and its warm derived state."""

    __slots__ = ("fingerprint", "name", "relation", "encoded", "cache",
                 "incremental", "registered_at", "last_used_at",
                 "n_appended_batches", "retired_from", "recency",
                 "pins", "root_fingerprint", "delta_lsn")

    def __init__(self, fp: str, relation: Relation, name: str,
                 max_cached_partitions: Optional[int],
                 root: Optional[str] = None):
        self.fingerprint = fp
        #: the content hash at first registration — stable across
        #: delta re-keying, and the key of this dataset's delta WAL
        self.root_fingerprint = root or fp
        #: LSN of the last delta-log record applied to this entry
        self.delta_lsn = 0
        self.name = name
        self.relation = relation
        self.encoded = relation.encode()
        self.cache = PartitionCache(self.encoded,
                                    max_entries=max_cached_partitions)
        #: lazily created on the first append to this entry
        self.incremental = None
        self.registered_at = time.time()
        self.last_used_at = self.registered_at
        #: monotone use counter — the LRU ordering key (wall-clock
        #: timestamps tie at microsecond granularity)
        self.recency = 0
        #: active pins (a running job) — a pinned entry is never the
        #: eviction victim, so eviction cannot close an engine mid-job
        self.pins = 0
        self.n_appended_batches = 0
        #: fingerprints this entry previously answered to (append
        #: re-keying leaves a forwarding trail)
        self.retired_from: List[str] = []

    @property
    def resident_bytes(self) -> int:
        """The eviction-budget currency: encoded rank column bytes.
        (Partitions ride along; their growth is bounded separately by
        the catalog's ``max_cached_partitions``.)"""
        return self.encoded.rank_nbytes

    def close(self) -> None:
        if self.incremental is not None:
            self.incremental.close()
            self.incremental = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "root_fingerprint": self.root_fingerprint,
            "delta_lsn": self.delta_lsn,
            "name": self.name,
            "n_rows": self.relation.n_rows,
            "arity": self.relation.arity,
            "attributes": list(self.relation.names),
            "resident_bytes": self.resident_bytes,
            "registered_at": self.registered_at,
            "last_used_at": self.last_used_at,
            "streaming": self.incremental is not None,
            "n_appended_batches": self.n_appended_batches,
            "retired_from": list(self.retired_from),
            "partition_cache": self.cache.stats(),
        }


class DatasetCatalog:
    """Registers relations under content fingerprints with LRU
    eviction by byte budget.

    >>> from repro.relation.table import Relation
    >>> catalog = DatasetCatalog()
    >>> entry = catalog.register(Relation.from_rows(
    ...     ["a", "b"], [(1, 2), (3, 4)]), name="tiny")
    >>> catalog.get(entry.fingerprint) is entry
    True
    """

    def __init__(self, max_resident_bytes: Optional[int] = None,
                 max_cached_partitions: Optional[int] = 64):
        for name, bound in (("max_resident_bytes", max_resident_bytes),
                            ("max_cached_partitions",
                             max_cached_partitions)):
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be a positive integer")
        self._max_resident_bytes = max_resident_bytes
        self._max_cached_partitions = max_cached_partitions
        #: fingerprint -> entry, least-recently-used first
        self._entries: Dict[str, CatalogEntry] = {}
        #: retired fingerprint -> current fingerprint (append re-keys)
        self._forwards: Dict[str, str] = {}
        self._lock = threading.RLock()
        self._use_counter = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # registration and lookup
    # ------------------------------------------------------------------
    def register(self, relation: Relation,
                 name: Optional[str] = None) -> CatalogEntry:
        """Register a relation, returning its (possibly pre-existing)
        entry.  Re-registering content with the same rank structure is
        free and refreshes the entry's recency."""
        entry, _ = self.register_entry(relation, name=name)
        return entry

    def register_entry(self, relation: Relation,
                       name: Optional[str] = None,
                       root: Optional[str] = None
                       ) -> "tuple[CatalogEntry, bool]":
        """:meth:`register` plus a ``created`` flag, decided under the
        catalog lock — the fingerprint is computed exactly once and
        concurrent registrations of the same content cannot both
        observe "new".  ``root`` pins the entry's root fingerprint
        (boot-time delta replay registers the *replayed* relation under
        the original registration's WAL key)."""
        if relation.n_rows == 0:
            raise CatalogError("refusing to register an empty relation")
        fp = fingerprint(relation)
        with self._lock:
            entry = self._entries.get(fp)
            created = entry is None
            if created:
                entry = CatalogEntry(fp, relation, name or fp[:12],
                                     self._max_cached_partitions,
                                     root=root)
                self._entries[fp] = entry
                # a live entry always outranks an append forward: if
                # this fingerprint was retired earlier, re-registering
                # the original snapshot must resolve to it, not be
                # shadowed onto the grown relation
                self._forwards.pop(fp, None)
            _REGISTRATIONS.inc(outcome="created" if created else "reused")
            self._touch(entry)
            self._evict_over_budget(keep=fp)
            self._sync_gauges()
            return entry, created

    def get(self, fp: str) -> CatalogEntry:
        """The entry for ``fp``, following append forwards; refreshes
        recency.  Raises :class:`UnknownFingerprintError` when
        unknown."""
        with self._lock:
            seen = set()
            # live entries win over forwards at every hop
            while (fp not in self._entries
                   and fp in self._forwards and fp not in seen):
                seen.add(fp)
                fp = self._forwards[fp]
            entry = self._entries.get(fp)
            if entry is None:
                raise UnknownFingerprintError(
                    f"unknown dataset fingerprint {fp!r}")
            self._touch(entry)
            return entry

    def __contains__(self, fp: str) -> bool:
        with self._lock:
            return fp in self._entries or fp in self._forwards

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[CatalogEntry]:
        """All resident entries, most recently used first."""
        with self._lock:
            return sorted(self._entries.values(),
                          key=lambda e: e.recency, reverse=True)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.resident_bytes for e in self._entries.values())

    # ------------------------------------------------------------------
    # the streaming (append) path
    # ------------------------------------------------------------------
    def ensure_incremental(self, fp: str, config: FastODConfig):
        """The entry's delta-maintenance engine, created on first use.

        The engine's config is fixed at creation — later
        appends reuse it regardless of per-request config (the result
        store key records which config the maintained result answers).
        """
        from repro.incremental import IncrementalFastOD

        entry = self.get(fp)
        if entry.incremental is None:
            entry.incremental = IncrementalFastOD(entry.relation,
                                                  config)
        return entry.incremental

    def rekey_after_delta(self, entry: CatalogEntry, new_fp: str,
                          lsn: Optional[int] = None) -> str:
        """Re-key an entry whose incremental engine just applied a
        delta (append, update, or delete) to ``new_fp``, the content
        fingerprint of the engine's relation (the caller hashed it
        already, to log the delta).

        The old fingerprint no longer names any existing snapshot; it
        is retired and forwarded, so clients holding the pre-delta
        fingerprint keep resolving to the live entry.  ``lsn`` (the
        delta WAL record just applied) is recorded even when the
        content fingerprint is unchanged — a cancelling batch still
        advances the log.  Returns the new fingerprint.
        """
        engine = entry.incremental
        if engine is None:
            raise CatalogError(
                f"entry {entry.fingerprint!r} has no incremental engine")
        with self._lock:
            if lsn is not None:
                entry.delta_lsn = lsn
            old_fp = entry.fingerprint
            if new_fp == old_fp:
                return old_fp
            entry.relation = engine.relation
            entry.encoded = engine.relation.encode()
            entry.cache.rebase(entry.encoded)
            entry.retired_from.append(old_fp)
            entry.n_appended_batches += 1
            entry.fingerprint = new_fp
            del self._entries[old_fp]
            existing = self._entries.get(new_fp)
            if existing is not None and existing is not entry:
                # another tenant already registered the mutated content;
                # keep theirs resident, fold ours away
                entry.close()
                self._forwards[old_fp] = new_fp
                self._sync_gauges()
                return new_fp
            self._entries[new_fp] = entry
            self._forwards[old_fp] = new_fp
            self._touch(entry)
            # deltas change resident bytes just like registrations do —
            # re-check the budget so an always-appending tenant cannot
            # outgrow --catalog-bytes unnoticed
            self._evict_over_budget(keep=new_fp)
            self._sync_gauges()
            return new_fp

    def add_forward(self, old_fp: str, new_fp: str) -> None:
        """Record that ``old_fp`` named an earlier snapshot of the
        entry now keyed ``new_fp`` (boot-time delta replay restores the
        forwarding trail a crashed service had built live)."""
        with self._lock:
            if old_fp != new_fp and old_fp not in self._entries:
                self._forwards[old_fp] = new_fp

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def pin(self, entry: CatalogEntry) -> None:
        """Shield an entry from eviction while a job uses it (the
        scheduler pins around every job; eviction runs on HTTP
        handler threads and must never close an engine mid-job)."""
        with self._lock:
            entry.pins += 1

    def unpin(self, entry: CatalogEntry) -> None:
        with self._lock:
            entry.pins = max(0, entry.pins - 1)

    def _touch(self, entry: CatalogEntry) -> None:
        entry.last_used_at = time.time()
        self._use_counter += 1
        entry.recency = self._use_counter

    def _evict_over_budget(self, keep: str) -> None:
        """Evict least-recently-used entries until under budget.
        ``keep`` (the entry just registered/touched) and pinned
        entries (a job mid-flight) are never evicted, so one
        oversized relation still registers and eviction never tears
        engines out from under the runner thread."""
        if self._max_resident_bytes is None:
            return
        while (sum(e.resident_bytes for e in self._entries.values())
               > self._max_resident_bytes and len(self._entries) > 1):
            victim = min(
                (e for e in self._entries.values()
                 if e.fingerprint != keep and e.pins == 0),
                key=lambda e: e.recency, default=None)
            if victim is None:
                return
            victim.close()
            del self._entries[victim.fingerprint]
            # retire forwards that point at the evicted entry — a
            # later lookup should 404 rather than chase a dead key
            self._forwards = {old: new for old, new
                              in self._forwards.items()
                              if new != victim.fingerprint}
            self.evictions += 1
            _EVICTIONS.inc()

    def _sync_gauges(self) -> None:
        """Mirror residency into the registry gauges (under the lock)."""
        _ENTRIES.set(float(len(self._entries)))
        _RESIDENT_BYTES.set(float(
            sum(e.resident_bytes for e in self._entries.values())))

    def close(self) -> None:
        """Close every entry's incremental engine."""
        with self._lock:
            for entry in self._entries.values():
                entry.close()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": sum(
                    e.resident_bytes for e in self._entries.values()),
                "max_resident_bytes": self._max_resident_bytes,
                "evictions": self.evictions,
                "forwards": len(self._forwards),
            }


__all__ = [
    "CatalogEntry",
    "CatalogError",
    "DatasetCatalog",
    "UnknownFingerprintError",
]
