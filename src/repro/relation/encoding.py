"""Rank encoding of relation columns into dense integers.

Section 4.6 of the paper: *"The values of the columns are replaced with
integers: 1, 2, ..., n, in a way that the equivalence classes do not
change and the ordering is preserved."*  After encoding, equality and
order comparisons over attribute values become cheap integer
comparisons, and the rank of a tuple's value doubles as the identifier
of its equivalence class in the single-attribute partition.

Missing values (``None``) sort before everything else (SQL ``NULLS
FIRST`` under ascending order).  Columns may mix types; a deterministic
total order is imposed by grouping values by *kind* (missing, boolean,
number, string, other) and ordering within each kind.  ``±inf`` are
ordinary numbers (below or above every finite one); NaN is rejected
with :class:`~repro.errors.DataError`, since it equals nothing, itself
included, and so has no place in an order.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError

#: Kind tags used to build a total order across mixed-type columns.
_KIND_MISSING = 0
_KIND_BOOL = 1
_KIND_NUMBER = 2
_KIND_STRING = 3
_KIND_OTHER = 4


def sort_key(value: Any) -> Tuple[int, Any]:
    """A total-order sort key for arbitrary cell values.

    ``None`` first, then booleans, then numbers (including numpy
    scalars — ``numbers.Number`` covers them), then strings, then other
    comparable values grouped by type, with ``repr`` as the last
    resort.  Within numbers, ints and floats compare numerically (so
    ``1 == 1.0`` share a rank) and ``±inf`` bound the finite ones; NaN
    raises :class:`~repro.errors.DataError`.
    """
    if value is None:
        return (_KIND_MISSING, 0)
    if isinstance(value, (bool, np.bool_)):
        return (_KIND_BOOL, bool(value))
    if isinstance(value, numbers.Number):
        # Normalise numpy scalars so 1, np.int64(1) and 1.0 share a key.
        as_float = float(value)
        try:
            as_int = int(as_float)
        except OverflowError:               # ±inf: an ordinary float
            return (_KIND_NUMBER, as_float)
        except ValueError:                  # NaN
            raise DataError(
                f"{value!r} is not a valid cell value: NaN equals "
                "nothing, itself included, so it has no place in an "
                "order") from None
        return (_KIND_NUMBER, as_int if as_int == as_float else as_float)
    if isinstance(value, str):
        return (_KIND_STRING, value)
    # Same-type values (dates, tuples, ...) compare among themselves;
    # the type name separates incompatible groups deterministically.
    return (_KIND_OTHER, type(value).__name__, value)


def _sorted_distinct(keyed: Sequence[Tuple]) -> List[Tuple]:
    try:
        return sorted(set(keyed))
    except TypeError:
        # Values of some exotic type that is not self-comparable:
        # fall back to a deterministic repr ordering for that group.
        return sorted(set(keyed), key=repr)


def rank_encode_column(values: Sequence[Any]) -> np.ndarray:
    """Dense-rank a column: equal values share a rank, order preserved.

    Returns an ``int64`` array of ranks in ``[0, #distinct)``.

    >>> list(rank_encode_column([30, 10, 10, 20]))
    [2, 0, 0, 1]
    """
    keyed = [sort_key(v) for v in values]
    order = _sorted_distinct(keyed)
    rank_of = {key: rank for rank, key in enumerate(order)}
    return np.fromiter(
        (rank_of[key] for key in keyed), dtype=np.int64, count=len(keyed))


class ColumnKeys:
    """The per-column dictionary behind an incremental rank encoding.

    Dense ranks shift when a new value lands between existing ones, so
    an append-friendly encoding separates two identities:

    * the **rank** of a value — its position in the sorted distinct
      keys, which moves as the domain grows, and
    * the **gid** of a value — a stable id assigned at first
      appearance, which never moves.

    ``sorted_keys[r]`` is the sort key holding rank ``r`` and
    ``gid_sorted[r]`` its stable gid; ``_gid_of`` maps keys to gids.
    :meth:`extend` folds a batch of raw values in, re-encoding *only*
    the batch and describing how old ranks shift via a monotone remap
    (the contract the delta partition kernels rely on: rank order —
    hence any lexicographic order built from ranks — is preserved).
    """

    __slots__ = ("sorted_keys", "gid_sorted", "_gid_of")

    def __init__(self, sorted_keys: List[Tuple], gid_sorted: np.ndarray,
                 gid_of: Dict[Tuple, int]):
        self.sorted_keys = sorted_keys
        self.gid_sorted = gid_sorted
        self._gid_of = gid_of

    @classmethod
    def from_values(cls, values: Sequence[Any]
                    ) -> Tuple[np.ndarray, "ColumnKeys"]:
        """Encode a column from scratch, returning (ranks, keys)."""
        keyed = [sort_key(v) for v in values]
        order = _sorted_distinct(keyed)
        gid_of = {key: gid for gid, key in enumerate(order)}
        ranks = np.fromiter((gid_of[key] for key in keyed),
                            dtype=np.int64, count=len(keyed))
        return ranks, cls(order, np.arange(len(order), dtype=np.int64),
                          gid_of)

    @property
    def n_distinct(self) -> int:
        return len(self.sorted_keys)

    def rank_of_gid(self) -> np.ndarray:
        """Inverse of ``gid_sorted``: stable gid -> current rank.

        Sized by the largest gid present, not the distinct count —
        sibling extensions branched from one snapshot share the gid
        namespace, so a branch's gids need not be contiguous.
        """
        if not len(self.gid_sorted):
            return np.empty(0, dtype=np.int64)
        inverse = np.full(int(self.gid_sorted.max()) + 1, -1,
                          dtype=np.int64)
        inverse[self.gid_sorted] = np.arange(len(self.gid_sorted),
                                             dtype=np.int64)
        return inverse

    def extend(self, values: Sequence[Any]
               ) -> Tuple["ColumnKeys", "ColumnExtension"]:
        """Fold a batch of raw values into the dictionary.

        Only the batch is keyed; unseen keys are merge-inserted into
        the sorted dictionary and the resulting rank shifts of the old
        domain are returned as a monotone ``remap`` array.  The
        pre-extension ``ColumnKeys`` stays valid for the old snapshot:
        the gid table is shared (a key means the same gid in every
        branch, and fresh gids are minted from the shared counter), so
        several extensions may branch from one snapshot — a key is
        *fresh for this branch* whenever it is not in this branch's
        sorted dictionary yet, even if a sibling already named it.
        """
        keyed = [sort_key(v) for v in values]
        gid_of = self._gid_of
        old_distinct = len(self.sorted_keys)
        # dict hits are members of this branch only while nobody else
        # has minted into the shared table; once polluted, membership
        # must be checked against this branch's own keys
        members = set(self.sorted_keys) \
            if len(gid_of) > old_distinct else None
        fresh: List[Tuple] = []
        fresh_seen: set = set()
        batch_gids = np.empty(len(keyed), dtype=np.int64)
        for i, key in enumerate(keyed):
            gid = gid_of.get(key)
            if gid is None:
                gid = len(gid_of)
                gid_of[key] = gid
                fresh_seen.add(key)
                fresh.append(key)
            elif key not in fresh_seen and (
                    key not in members if members is not None
                    else gid >= old_distinct):
                # named by a sibling branch (or possibly, before this
                # call, by an earlier batch of one) — new to us
                fresh_seen.add(key)
                fresh.append(key)
            batch_gids[i] = gid
        if not fresh:
            remap = np.arange(old_distinct, dtype=np.int64)
            extended = ColumnKeys(self.sorted_keys, self.gid_sorted, gid_of)
        else:
            fresh = _sorted_distinct(fresh)
            try:
                positions = np.fromiter(
                    (bisect_left(self.sorted_keys, key) for key in fresh),
                    dtype=np.int64, count=len(fresh))
            except TypeError:
                # keys of some exotic non-comparable type: rebuild the
                # merged order the same way from_values would
                return self._extend_incomparable(fresh, batch_gids,
                                                 gid_of)
            # old rank r shifts right by the number of fresh keys
            # inserted at positions <= r
            remap = np.arange(old_distinct, dtype=np.int64)
            remap += np.searchsorted(positions, remap, side="right")
            # gids were handed out in first-appearance order, which need
            # not match key order — look each sorted fresh key back up
            fresh_gids = np.fromiter((gid_of[key] for key in fresh),
                                     dtype=np.int64, count=len(fresh))
            gid_sorted = np.insert(self.gid_sorted, positions, fresh_gids)
            # one linear merge of the two sorted key lists (a per-key
            # list.insert would cost O(fresh * distinct))
            merged: List[Tuple] = []
            previous = 0
            for position, key in zip(positions.tolist(), fresh):
                merged.extend(self.sorted_keys[previous:position])
                merged.append(key)
                previous = position
            merged.extend(self.sorted_keys[previous:])
            extended = ColumnKeys(merged, gid_sorted, gid_of)
        batch_ranks = extended.rank_of_gid()[batch_gids]
        return extended, ColumnExtension(remap, batch_ranks, batch_gids)

    def _extend_incomparable(self, fresh: List[Tuple],
                             batch_gids: np.ndarray, gid_of: Dict
                             ) -> Tuple["ColumnKeys", "ColumnExtension"]:
        """Slow-path extension for keys the fast merge cannot order:
        re-sort the merged key set exactly as :meth:`from_values`
        would (falling back to ``repr`` order), so incremental and
        from-scratch encodings agree on any hashable value type."""
        merged = _sorted_distinct(list(self.sorted_keys) + fresh)
        position_of = {key: rank for rank, key in enumerate(merged)}
        remap = np.fromiter(
            (position_of[key] for key in self.sorted_keys),
            dtype=np.int64, count=len(self.sorted_keys))
        gid_sorted = np.empty(len(merged), dtype=np.int64)
        for key, rank in position_of.items():
            gid_sorted[rank] = gid_of[key]
        extended = ColumnKeys(merged, gid_sorted, gid_of)
        batch_ranks = extended.rank_of_gid()[batch_gids]
        return extended, ColumnExtension(remap, batch_ranks, batch_gids)


class ColumnExtension:
    """What one batch did to one column's encoding.

    ``remap`` maps old rank -> new rank (monotone increasing);
    ``batch_ranks`` are the appended rows' ranks in the new domain;
    ``batch_gids`` their stable first-appearance ids (used by the
    incremental engine as order-free group identities).
    """

    __slots__ = ("remap", "batch_ranks", "batch_gids")

    def __init__(self, remap: np.ndarray, batch_ranks: np.ndarray,
                 batch_gids: np.ndarray):
        self.remap = remap
        self.batch_ranks = batch_ranks
        self.batch_gids = batch_gids


class EncodedRelation:
    """A relation instance reduced to dense integer rank columns.

    This is the representation all discovery algorithms consume: a list
    of numpy ``int64`` arrays, one per attribute, where ``ranks[a][t]``
    is the dense rank of tuple ``t``'s value on attribute ``a``.

    ``keys`` optionally retains the per-column :class:`ColumnKeys`
    dictionaries, which makes the relation *appendable*: batches are
    folded in by :meth:`append_values`, re-encoding only the new values
    (paper encodings are whole-snapshot; the incremental engine needs
    the delta form).
    """

    __slots__ = ("names", "ranks", "n_rows", "keys", "_arena")

    def __init__(self, names: Sequence[str], ranks: List[np.ndarray],
                 keys: Optional[List[ColumnKeys]] = None):
        if len(names) != len(ranks):
            raise ValueError("one rank column required per attribute")
        if keys is not None and len(keys) != len(ranks):
            raise ValueError("one key dictionary required per attribute")
        self.names: Tuple[str, ...] = tuple(names)
        self.ranks: List[np.ndarray] = ranks
        self.n_rows: int = int(len(ranks[0])) if ranks else 0
        self.keys: Optional[List[ColumnKeys]] = keys
        #: cached shared-memory ColumnArena (see :meth:`shared_arena`)
        self._arena = None
        for column in ranks:
            if len(column) != self.n_rows:
                raise ValueError("rank columns have inconsistent lengths")

    @classmethod
    def from_columns(cls, names: Sequence[str],
                     columns: Sequence[Sequence[Any]]) -> "EncodedRelation":
        """Rank-encode raw columns, retaining the appendable key state."""
        ranks: List[np.ndarray] = []
        keys: List[ColumnKeys] = []
        for column in columns:
            column_ranks, column_keys = ColumnKeys.from_values(column)
            ranks.append(column_ranks)
            keys.append(column_keys)
        return cls(names, ranks, keys)

    @property
    def arity(self) -> int:
        return len(self.names)

    def column(self, index: int) -> np.ndarray:
        """The rank column of the attribute at ``index``."""
        return self.ranks[index]

    def rank_arrays(self) -> Dict[int, np.ndarray]:
        """All rank columns keyed by attribute index — the publication
        unit of the shared-memory worker pool (each column is copied
        into the shared block once per pool, never per task)."""
        return {a: self.ranks[a] for a in range(self.arity)}

    @property
    def rank_nbytes(self) -> int:
        """Total bytes held by the rank columns (capacity planning for
        shared-memory publication and peak-memory accounting)."""
        return sum(column.nbytes for column in self.ranks)

    def has_live_arena(self) -> bool:
        """True when a shared-memory arena for this relation's columns
        is already published (some pool currently holds it)."""
        return self._arena is not None and not self._arena.closed

    def shared_arena(self):
        """An **acquired** shared-memory arena over the rank columns.

        The first caller pays one copy into a fresh segment; as long as
        at least one holder keeps it acquired, further callers adopt
        the same segment zero-copy (two executors over one relation
        share one publication).  The arena is handed out with one
        reference already taken — the caller owns it and must
        :meth:`~repro.kernels.ingest.ColumnArena.release`; once every
        holder releases, the segment is unlinked and the next call
        builds a fresh one.
        """
        from repro.kernels.ingest import ColumnArena

        arena = self._arena
        if arena is not None and not arena.closed:
            try:
                return arena.acquire()
            except ValueError:   # closed between the check and acquire
                pass
        arena = ColumnArena.build(self.rank_arrays(), self.n_rows,
                                  backing="shm")
        arena.acquire()
        self._arena = arena
        return arena

    def tuple_ranks(self, row: int, indices: Sequence[int]) -> Tuple[int, ...]:
        """Project one tuple onto ``indices``, returning its ranks."""
        return tuple(int(self.ranks[i][row]) for i in indices)

    def select_rows(self, indices: Sequence[int]) -> "EncodedRelation":
        """Re-encode a row subset (or reordering) without touching raw
        values.

        Dense ranks of a gathered row set are the gathered ranks,
        re-densified — one vectorized ``np.unique`` per column instead
        of re-keying every cell through :func:`sort_key`.  The result
        is byte-identical to encoding the selected rows from scratch
        (``np.unique`` sorts, and any subset of dense ranks keeps its
        relative order), so content fingerprints agree.

        When keys are retained, the selected encoding shares the gid
        table: values whose last occurrence was dropped keep their
        stable gid, so re-inserting one later rides the normal
        sibling-branch path of :meth:`ColumnKeys.extend`.  This is the
        deletion analogue of :meth:`append_values` — the incremental
        engine's retraction path lives on it.
        """
        from repro import kernels

        keep = np.asarray(indices, dtype=np.int64)
        ranks: List[np.ndarray] = []
        keys: Optional[List[ColumnKeys]] = (
            None if self.keys is None else [])
        for a, column_ranks in enumerate(self.ranks):
            survivors, dense = kernels.densify(column_ranks[keep])
            ranks.append(dense)
            if keys is not None:
                old = self.keys[a]
                keys.append(ColumnKeys(
                    [old.sorted_keys[r] for r in survivors.tolist()],
                    old.gid_sorted[survivors],
                    old._gid_of))
        return EncodedRelation(self.names, ranks, keys)

    def append_values(self, batch_columns: Sequence[Sequence[Any]]
                      ) -> Tuple["EncodedRelation", List[ColumnExtension]]:
        """Fold a batch of raw column values into the encoding.

        Returns the grown relation plus one :class:`ColumnExtension`
        per column.  Work is proportional to the batch for the new
        rows' ranks and to the (old) data only through one vectorized
        remap gather per column — no re-sorting of old values.  The
        original relation is left untouched.

        Requires ``keys`` (an encoding built via :meth:`from_columns`
        or :meth:`repro.relation.table.Relation.encode`).
        """
        if self.keys is None:
            raise ValueError(
                "this EncodedRelation was built without key retention "
                "and cannot be appended to")
        if len(batch_columns) != self.arity:
            raise ValueError(
                f"expected {self.arity} batch columns, "
                f"got {len(batch_columns)}")
        ranks: List[np.ndarray] = []
        keys: List[ColumnKeys] = []
        extensions: List[ColumnExtension] = []
        for column_ranks, column_keys, batch in zip(
                self.ranks, self.keys, batch_columns):
            extended_keys, extension = column_keys.extend(batch)
            ranks.append(np.concatenate(
                (extension.remap[column_ranks], extension.batch_ranks)))
            keys.append(extended_keys)
            extensions.append(extension)
        return EncodedRelation(self.names, ranks, keys), extensions
