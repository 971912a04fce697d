"""Delta maintenance of groupings and stripped partitions.

The discovery lattice consumes, per attribute set ``X``, the stripped
partition Π*_X.  Rebuilding every partition per appended batch repeats
an O(n log n) sort for each mask; this module maintains them instead:

* :class:`GroupTracker` — the *full* grouping of rows by ``X``
  (singletons included), with **stable group ids**: a group keeps its
  id as it grows, new groups get fresh ids.  Stability is what lets
  per-group validation state (constants, interval sets) survive a
  batch.  Trackers compose structurally: the tracker for ``X`` pairs
  the tracker of ``X`` minus its lowest attribute with that attribute's
  stable value ids, so one batch updates the whole tracked family in
  vectorized passes proportional to the batch.
* :class:`DeltaPartition` — a materialized Π*_X kept current by
  splicing each batch into the CSR rows/offsets layout
  (:func:`repro.partitions.partition.merge_batch`) instead of
  re-sorting, tracking which classes grew.

Stable ids bottom out in the encoding layer: a value's ``gid`` is its
first-appearance id (:class:`repro.relation.encoding.ColumnKeys`),
which — unlike its dense rank — never moves when later batches insert
new values between existing ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.partitions.partition import (
    StrippedPartition,
    _strip_sorted_runs,
    merge_batch,
)

#: Attribute-value gids occupy the low bits of a composite pair key;
#: 32 bits bounds the per-column distinct count at 2^32 — far above
#: any relation this engine will see in memory.
_PAIR_SHIFT = 32


class BatchEffect:
    """What one appended batch did to one tracked grouping.

    ``join_rows``/``join_gids`` — batch rows landing in groups that
    were already classes (size >= 2).  ``new_groups`` — ``(gid, rows)``
    per newly *formed* class: either an old singleton promoted by
    matching batch rows (its original row leads) or a fresh group with
    two or more batch rows.  ``batch_gids`` — every batch row's group
    id, in batch order.

    ``new_groups`` is built on first read: only a materialized
    :class:`DeltaPartition` splices the formed classes in, and most
    synced groupings have none.
    """

    __slots__ = ("mask", "batch_rows", "batch_gids", "join_rows",
                 "join_gids", "_formed", "_new_groups")

    def __init__(self, mask: int, batch_rows: np.ndarray,
                 batch_gids: np.ndarray, join_rows: np.ndarray,
                 join_gids: np.ndarray,
                 formed: Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]):
        """``formed`` is ``(gids, leads, rows, starts, stops)``: per
        newly formed class its gid, the promoted singleton's row (-1
        for a fresh group) and its batch rows ``rows[start:stop]``."""
        self.mask = mask
        self.batch_rows = batch_rows
        self.batch_gids = batch_gids
        self.join_rows = join_rows
        self.join_gids = join_gids
        self._formed = formed
        self._new_groups: Optional[List[Tuple[int, np.ndarray]]] = None

    @property
    def new_groups(self) -> List[Tuple[int, np.ndarray]]:
        if self._new_groups is None:
            gids, leads, rows, starts, stops = self._formed
            groups: List[Tuple[int, np.ndarray]] = []
            for gid, lead, start, stop in zip(
                    gids.tolist(), leads.tolist(), starts.tolist(),
                    stops.tolist()):
                members = rows[start:stop]
                if lead >= 0:
                    members = np.concatenate(([lead], members))
                groups.append((gid, members))
            self._new_groups = groups
        return self._new_groups

    @property
    def touches_classes(self) -> bool:
        """True when some class gained rows or came into existence."""
        return bool(len(self.join_rows)) or bool(len(self._formed[0]))


class GroupTracker:
    """Stable-id grouping of all rows by one attribute set.

    ``group_of[t]`` is row ``t``'s group id; ``sizes``/``first_row``
    are per-gid.  ``n_classes``/``n_grouped_rows`` mirror the stripped
    partition's measures (``|Π*|`` and ``||Π*||``), maintained O(batch)
    per append so the FD error test ``e(X) = ||Π*|| - |Π*|`` and the
    superkey test stay O(1) without materializing the partition.
    """

    __slots__ = ("mask", "group_of", "sizes", "first_row", "n_groups",
                 "n_classes", "n_grouped_rows", "_keys_sorted",
                 "_gid_for_key")

    def __init__(self, mask: int, group_of: np.ndarray, n_groups: int,
                 keys_sorted: Optional[np.ndarray] = None,
                 gid_for_key: Optional[np.ndarray] = None):
        self.mask = mask
        self.group_of = group_of
        self.n_groups = n_groups
        self.sizes = np.bincount(group_of, minlength=n_groups) \
            if len(group_of) else np.zeros(n_groups, dtype=np.int64)
        # last write wins on duplicate indices, so assigning in reverse
        # row order leaves each gid's first occurrence
        self.first_row = np.full(n_groups, -1, dtype=np.int64)
        if len(group_of):
            indices = np.arange(len(group_of), dtype=np.int64)
            self.first_row[group_of[::-1]] = indices[::-1]
        grouped = self.sizes >= 2
        self.n_classes = int(grouped.sum())
        self.n_grouped_rows = int(self.sizes[grouped].sum())
        self._keys_sorted = keys_sorted
        self._gid_for_key = gid_for_key

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_gids(cls, mask: int, gids: np.ndarray) -> "GroupTracker":
        """Tracker over a dense, stable gid column.

        Covers the two base cases: a single attribute (the encoder's
        value gids) and the empty set (all-zero gids).
        """
        n_groups = int(gids.max()) + 1 if len(gids) else 0
        return cls(mask, gids.astype(np.int64, copy=True), n_groups)

    @classmethod
    def combine(cls, mask: int, parent: "GroupTracker",
                attr_gids: np.ndarray) -> "GroupTracker":
        """Tracker for ``X`` from ``X``-minus-lowest and that
        attribute's value gids (the structural recursion)."""
        keys = (parent.group_of << _PAIR_SHIFT) | attr_gids
        keys_sorted, group_of = np.unique(keys, return_inverse=True)
        return cls(mask, group_of.astype(np.int64, copy=False),
                   len(keys_sorted), keys_sorted,
                   np.arange(len(keys_sorted), dtype=np.int64))

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self.group_of)

    @property
    def error(self) -> int:
        """TANE's e(X) numerator, ``||Π*|| - |Π*||``."""
        return self.n_grouped_rows - self.n_classes

    def is_superkey(self) -> bool:
        return self.n_classes == 0

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def _batch_gids(self, batch_attr_gids: np.ndarray,
                    parent: Optional["GroupTracker"]) -> np.ndarray:
        """Resolve the batch rows' group ids, minting fresh ids for
        unseen (parent-group, value) combinations."""
        if parent is None:
            # base case: the column's stable value gids are the group
            # ids (fresh values already carry fresh sequential gids)
            return batch_attr_gids.astype(np.int64, copy=False)
        # the parent must already cover the batch span; its gids for
        # the same rows form the high half of the pair keys
        parent_gids = parent.group_of[len(self.group_of):]
        if len(parent_gids) != len(batch_attr_gids):
            raise ValueError(
                "parent tracker does not cover the batch span")
        keys = (parent_gids << _PAIR_SHIFT) | batch_attr_gids
        positions = np.searchsorted(self._keys_sorted, keys)
        positions = np.minimum(positions, len(self._keys_sorted) - 1) \
            if len(self._keys_sorted) else np.zeros(len(keys), dtype=np.int64)
        known = np.zeros(len(keys), dtype=bool)
        if len(self._keys_sorted):
            known = self._keys_sorted[positions] == keys
        gids = np.empty(len(keys), dtype=np.int64)
        if known.any():
            gids[known] = self._gid_for_key[positions[known]]
        if not known.all():
            fresh_keys, inverse = np.unique(keys[~known],
                                            return_inverse=True)
            fresh_gids = np.arange(
                self.n_groups, self.n_groups + len(fresh_keys),
                dtype=np.int64)
            gids[~known] = fresh_gids[inverse]
            insert_at = np.searchsorted(self._keys_sorted, fresh_keys)
            self._keys_sorted = np.insert(self._keys_sorted, insert_at,
                                          fresh_keys)
            self._gid_for_key = np.insert(self._gid_for_key, insert_at,
                                          fresh_gids)
        return gids

    def apply_batch(self, batch_attr_gids: np.ndarray,
                    parent: Optional["GroupTracker"] = None) -> BatchEffect:
        """Fold one appended span of rows in and describe what changed.

        ``batch_attr_gids`` are the span's stable value gids on this
        tracker's distinguishing attribute (for base trackers — a
        single attribute or the empty set — they *are* the group ids).
        ``parent`` is the already-updated tracker of the set minus that
        attribute.  The span may cover several logical batches at once:
        trackers that nothing currently validates are left stale and
        caught up in one combined span when next consulted.
        """
        n_old = len(self.group_of)
        old_n_groups = self.n_groups
        old_sizes = self.sizes
        gids = self._batch_gids(batch_attr_gids, parent)
        batch_rows = np.arange(n_old, n_old + len(gids), dtype=np.int64)

        self.group_of = np.concatenate((self.group_of, gids))
        n_groups = max(old_n_groups,
                       int(gids.max()) + 1 if len(gids) else 0)

        # segment the batch by gid once, then classify whole segments
        # (newly formed classes are listed lazily, see BatchEffect)
        order = np.argsort(gids, kind="stable")
        sorted_gids = gids[order]
        sorted_rows = batch_rows[order]
        starts = np.flatnonzero(
            np.diff(sorted_gids, prepend=-1)) if len(gids) else \
            np.empty(0, dtype=np.int64)
        bounds = np.append(starts, len(gids))
        seg_gids = sorted_gids[starts]
        seg_counts = bounds[1:] - starts
        known_seg = seg_gids < old_n_groups
        seg_old_sizes = np.zeros(len(seg_gids), dtype=np.int64)
        if known_seg.any():
            seg_old_sizes[known_seg] = old_sizes[seg_gids[known_seg]]

        joining = seg_old_sizes >= 2
        join_mask = np.repeat(joining, seg_counts)
        join_rows = sorted_rows[join_mask]
        join_gids = sorted_gids[join_mask]

        promoted = seg_old_sizes == 1
        forming = (seg_old_sizes == 0) & (seg_counts >= 2)
        formed = np.flatnonzero(promoted | forming)
        formed_gids = seg_gids[formed]
        # a promoted singleton's original row leads its class; read
        # before the bookkeeping below (promoted gids are all old)
        leads = np.full(len(formed), -1, dtype=np.int64)
        lead_mask = promoted[formed]
        leads[lead_mask] = self.first_row[formed_gids[lead_mask]]

        grouped_delta = int(len(join_rows)
                            + seg_counts[promoted].sum() + promoted.sum()
                            + seg_counts[forming].sum())
        classes_delta = int(promoted.sum() + forming.sum())

        # per-gid bookkeeping: grow the arrays, then count the batch in
        if n_groups > old_n_groups:
            growth = n_groups - old_n_groups
            self.sizes = np.concatenate(
                (self.sizes, np.zeros(growth, dtype=np.int64)))
            fresh_first = np.full(growth, -1, dtype=np.int64)
            self.first_row = np.concatenate((self.first_row, fresh_first))
            fresh_mask = sorted_gids >= old_n_groups
            if fresh_mask.any():
                fresh_sorted = sorted_gids[fresh_mask]
                fresh_members = batch_rows[order[fresh_mask]]
                # reverse assignment: first occurrence wins
                self.first_row[fresh_sorted[::-1]] = fresh_members[::-1]
        if len(gids):
            np.add.at(self.sizes, gids, 1)
        self.n_groups = n_groups
        self.n_grouped_rows += grouped_delta
        self.n_classes += classes_delta

        return BatchEffect(self.mask, batch_rows, gids, join_rows,
                           join_gids, (formed_gids, leads, sorted_rows,
                                       starts[formed], bounds[formed + 1]))


class DeltaPartition:
    """A materialized Π*_X kept fresh through CSR batch merges.

    Built lazily from a :class:`GroupTracker` (one counting sort), then
    maintained by translating each :class:`BatchEffect` into a
    :func:`merge_batch` splice.  ``class_gids[c]`` is the stable group
    id of CSR class ``c`` (class ids are append-only, mirroring the
    kernel's contract), and ``last_grew`` flags the classes the latest
    batch touched — the classes incremental validation re-examines.
    """

    __slots__ = ("tracker", "partition", "class_gids", "last_grew")

    def __init__(self, tracker: GroupTracker):
        self.tracker = tracker
        if tracker.n_classes == 0:
            self.partition = StrippedPartition([], tracker.n_rows)
            self.class_gids = np.empty(0, dtype=np.int64)
        else:
            order = np.argsort(tracker.group_of,
                               kind="stable").astype(np.int64, copy=False)
            rows, offsets = _strip_sorted_runs(
                order, tracker.group_of[order])
            self.partition = StrippedPartition.from_flat(
                rows, offsets, tracker.n_rows)
            self.class_gids = tracker.group_of[rows[offsets[:-1]]]
        self.last_grew = np.zeros(len(self.class_gids), dtype=bool)

    def class_of_gid(self) -> np.ndarray:
        """gid -> CSR class id (-1 for singleton/absent gids)."""
        table = np.full(self.tracker.n_groups, -1, dtype=np.int64)
        table[self.class_gids] = np.arange(len(self.class_gids),
                                           dtype=np.int64)
        return table

    def apply(self, effect: BatchEffect) -> None:
        """Splice one batch's effect into the CSR layout."""
        n_rows = self.tracker.n_rows
        if not effect.touches_classes:
            self.partition = StrippedPartition.from_flat(
                self.partition.rows, self.partition.offsets, n_rows)
            self.last_grew = np.zeros(len(self.class_gids), dtype=bool)
            return
        join_classes = self.class_of_gid()[effect.join_gids]
        self.partition, self.last_grew = merge_batch(
            self.partition, n_rows, effect.join_rows, join_classes,
            [rows for _, rows in effect.new_groups])
        if effect.new_groups:
            self.class_gids = np.concatenate(
                (self.class_gids,
                 np.fromiter((gid for gid, _ in effect.new_groups),
                             dtype=np.int64,
                             count=len(effect.new_groups))))

    def grown_classes(self) -> Sequence[Tuple[int, np.ndarray]]:
        """(gid, rows) of every class the last batch touched."""
        offsets = self.partition.offsets
        rows = self.partition.rows
        return [
            (int(self.class_gids[c]), rows[offsets[c]:offsets[c + 1]])
            for c in np.flatnonzero(self.last_grew)
        ]
