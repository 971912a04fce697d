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
number, string, other) and ordering within each kind.  Integers rank
exactly, whatever their size; ``±inf`` are ordinary numbers (below or
above every finite one).  NaN, which equals nothing, itself included,
and non-real numbers have no place in an order: both are rejected with
:class:`~repro.errors.DataError`.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.errors import DataError

#: Kind tags used to build a total order across mixed-type columns.
_KIND_MISSING = 0
_KIND_BOOL = 1
_KIND_NUMBER = 2
_KIND_STRING = 3
_KIND_OTHER = 4

#: The exact cell types an integer column may hold: ``int`` and the
#: signed NumPy integers — not ``bool``/``np.bool_``, which rank apart
#: from the numbers, nor ``np.timedelta64``.
_INTEGER_TYPES = frozenset(
    [int, *(np.dtype(code).type for code in np.typecodes["Integer"])])


def sort_key(value: Any) -> Tuple[int, Any]:
    """A total-order sort key for arbitrary cell values.

    ``None`` first, then booleans, then numbers (including numpy
    scalars — ``numbers.Number`` covers them), then strings, then other
    comparable values grouped by type, with ``repr`` as the last
    resort.  Within numbers, integers key by their exact ``int`` (no
    rounding through ``float``: ``2**53`` and ``2**53 + 1`` keep two
    ranks, ``10**400`` does not overflow), and ints and floats compare
    numerically (so ``1 == 1.0`` share a rank); ``±inf`` bound the
    finite ones.  NaN and non-real numbers (``complex``) raise
    :class:`~repro.errors.DataError`.
    """
    if value is None:
        return (_KIND_MISSING, 0)
    # exact-type fast paths for the common cells (a bool is not an int
    # here: its type is bool)
    cls = type(value)
    if cls is int:
        return (_KIND_NUMBER, value)
    if cls is str:
        return (_KIND_STRING, value)
    if isinstance(value, (bool, np.bool_)):
        return (_KIND_BOOL, bool(value))
    if isinstance(value, str):
        return (_KIND_STRING, value)
    # the concrete types first: they are the common cells, and an
    # abstract numbers.* check costs several times more
    if isinstance(value, (float, np.floating)):
        return (_KIND_NUMBER, _real_key(value))
    if isinstance(value, (int, np.integer, numbers.Integral)):
        return (_KIND_NUMBER, int(value))
    if isinstance(value, numbers.Number):
        if (isinstance(value, numbers.Complex)
                and not isinstance(value, numbers.Real)):
            raise DataError(
                f"{value!r} is not a valid cell value: a non-real "
                "number has no place in an order")
        return (_KIND_NUMBER, _real_key(value))
    # Same-type values (dates, tuples, ...) compare among themselves;
    # the type name separates incompatible groups deterministically.
    # A key must index a dictionary, so a list or object cell is
    # refused here rather than failing inside the encoder.
    try:
        hash(value)
    except TypeError:
        raise DataError(
            f"cell {value!r} is unhashable; rows must hold scalar "
            "values") from None
    return (_KIND_OTHER, type(value).__name__, value)


def _real_key(value: Any) -> Any:
    """The number key of a non-integer real: the ``int`` it equals
    when integral (so ``1.0`` and ``1`` share a key), else the float;
    ``±inf`` stay floats and NaN raises."""
    as_float = float(value)
    try:
        as_int = int(as_float)
    except OverflowError:                   # ±inf: an ordinary float
        return as_float
    except ValueError:                      # NaN
        raise DataError(
            f"{value!r} is not a valid cell value: NaN equals "
            "nothing, itself included, so it has no place in an "
            "order") from None
    return as_int if as_int == as_float else as_float


def _sorted_distinct(keyed: Sequence[Tuple]) -> List[Tuple]:
    try:
        return sorted(set(keyed))
    except TypeError:
        # Values of some exotic type that is not self-comparable:
        # fall back to a deterministic repr ordering for that group.
        return sorted(set(keyed), key=repr)


def _integer_column(values: Sequence[Any]
                    ) -> Optional[Tuple[List[Tuple], np.ndarray]]:
    """The sorted distinct keys and the ranks of a column whose every
    cell is an ``int`` or a signed NumPy integer within ``int64``, by
    one ``np.unique`` and no :func:`sort_key` call; ``None`` for any
    other column."""
    if not _INTEGER_TYPES.issuperset(map(type, values)):
        return None
    try:
        column = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:                   # beyond int64: exact ints
        return None
    distinct, ranks = np.unique(column, return_inverse=True)
    return (list(zip(repeat(_KIND_NUMBER), distinct.tolist())),
            ranks.astype(np.int64, copy=False))


def _key_cells(values: Sequence[Any]) -> Tuple[List[Tuple], np.ndarray]:
    """Key each distinct cell once: the :func:`sort_key` of every
    distinct ``(type, value)`` pair, in order of first appearance, and
    each cell's index into that list.

    The type is part of the pair because Python equality merges
    values the encoder keeps apart (``True == 1``, but a boolean ranks
    below every number).  Pairs come in the order of their first cell,
    so the keys, their sort and the first
    :class:`~repro.errors.DataError` are those of keying cell by cell.
    """
    try:
        distinct = dict.fromkeys(zip(map(type, values), values))
    except TypeError:
        # an unhashable cell: key cell by cell, so that sort_key names
        # the first bad cell in column order
        cells = list(map(sort_key, values))
        distinct = dict.fromkeys(cells)
        keys = list(distinct)
    else:
        cells = zip(map(type, values), values)
        keys = [sort_key(value) for _, value in distinct]
    index_of = dict(zip(distinct, range(len(distinct))))
    return keys, np.fromiter(map(index_of.__getitem__, cells),
                             dtype=np.int64, count=len(values))


def rank_encode_column(values: Sequence[Any]) -> np.ndarray:
    """Dense-rank a column: equal values share a rank, order preserved.

    Returns an ``int64`` array of ranks in ``[0, #distinct)``.

    >>> list(rank_encode_column([30, 10, 10, 20]))
    [2, 0, 0, 1]
    """
    return ColumnKeys.from_values(values)[0]


class ColumnKeys:
    """The per-column dictionary behind an incremental rank encoding.

    Dense ranks shift when a new value lands between existing ones, so
    an append-friendly encoding separates two identities:

    * the **rank** of a value — its position in the sorted distinct
      keys, which moves as the domain grows, and
    * the **gid** of a value — a stable id assigned at first
      appearance, which never moves.

    ``gid_sorted[r]`` is the gid holding rank ``r``.  The gid table
    (``_gid_of`` maps sort keys to gids, ``_key_of`` gids back to
    keys) is shared by the encodings derived from one
    :meth:`from_values`, so a derived encoding costs only its
    ``gid_sorted`` array, and deleting or inserting keys edits that
    array alone.  Gids are internal to the encoding: they name keys
    across the branches that share a table, and nothing reads them
    across batches, so :meth:`EncodedRelation.drop_rows` may give a
    column a fresh table (:meth:`compacted`).  :meth:`extend` folds a
    batch of raw values in, re-encoding *only* the batch and
    describing how old ranks shift via a monotone remap (rank order —
    hence any lexicographic order built from ranks — is preserved).
    """

    __slots__ = ("gid_sorted", "_gid_of", "_key_of", "_rank_of_gid")

    def __init__(self, gid_sorted: np.ndarray, gid_of: Dict[Tuple, int],
                 key_of: List[Tuple]):
        self.gid_sorted = gid_sorted
        self._gid_of = gid_of
        self._key_of = key_of
        self._rank_of_gid: Optional[np.ndarray] = None

    @classmethod
    def from_values(cls, values: Sequence[Any]
                    ) -> Tuple[np.ndarray, "ColumnKeys"]:
        """Encode a column from scratch, returning (ranks, keys).

        :func:`sort_key` runs once per distinct value, and never on an
        all-integer column, which one ``np.unique`` ranks."""
        integer = _integer_column(values)
        if integer is not None:
            order, ranks = integer
            gid_of = dict(zip(order, range(len(order))))
        else:
            keys, cells = _key_cells(values)
            order = _sorted_distinct(keys)
            gid_of = dict(zip(order, range(len(order))))
            ranks = np.fromiter(map(gid_of.__getitem__, keys),
                                dtype=np.int64, count=len(keys))[cells]
        return ranks, cls(np.arange(len(order), dtype=np.int64), gid_of,
                          order)

    def compacted(self) -> "ColumnKeys":
        """The same keys under a fresh table holding them alone (gid =
        rank), for a column whose shared table has outgrown it."""
        keys = self.sorted_keys
        return ColumnKeys(np.arange(len(keys), dtype=np.int64),
                          {key: gid for gid, key in enumerate(keys)},
                          keys)

    @property
    def sorted_keys(self) -> List[Tuple]:
        """The sort key holding each rank, in rank order (built on
        each call)."""
        return list(map(self._key_of.__getitem__, self.gid_sorted.tolist()))

    @property
    def n_distinct(self) -> int:
        return len(self.gid_sorted)

    def rank_of_gid(self) -> np.ndarray:
        """Inverse of ``gid_sorted``: stable gid -> current rank, -1
        for a gid this branch does not hold (computed on first use and
        cached, read-only).

        Sized by the largest gid present, not the distinct count —
        sibling extensions branched from one snapshot share the gid
        namespace, so a branch's gids need not be contiguous.
        """
        if self._rank_of_gid is None:
            inverse = np.full(int(self.gid_sorted.max(initial=-1)) + 1, -1,
                              dtype=np.int64)
            inverse[self.gid_sorted] = np.arange(len(self.gid_sorted),
                                                 dtype=np.int64)
            inverse.setflags(write=False)
            self._rank_of_gid = inverse
        return self._rank_of_gid

    def _ranks_of_gids(self, gids: np.ndarray) -> np.ndarray:
        """Each gid's rank in this branch, -1 where this branch does
        not hold it (unknown, or named only by a sibling branch)."""
        rank_of_gid = self.rank_of_gid()
        ranks = np.full(len(gids), -1, dtype=np.int64)
        held = (gids >= 0) & (gids < len(rank_of_gid))
        ranks[held] = rank_of_gid[gids[held]]
        return ranks

    def ranks_of(self, keyed: Sequence[Tuple]) -> np.ndarray:
        """The rank of each :func:`sort_key` key in this column, -1 for
        a key the column does not hold: looks keys up, adds none."""
        return self._ranks_of_gids(np.fromiter(
            (self._gid_of.get(key, -1) for key in keyed),
            dtype=np.int64, count=len(keyed)))

    def extend(self, values: Sequence[Any]
               ) -> Tuple["ColumnKeys", "ColumnExtension"]:
        """Fold a batch of raw values into the dictionary.

        Only the batch is keyed, once per distinct value; unseen keys
        get fresh gids (in order of first appearance), their
        ranks are found by binary search over this branch's keys, and
        the resulting rank shifts of the old domain are returned as a
        monotone ``remap`` array.  The pre-extension ``ColumnKeys``
        stays valid for the old snapshot: the gid table is shared (a
        key means the same gid in every branch, and fresh gids are
        minted from the shared counter), so several extensions may
        branch from one snapshot — a key is *fresh for this branch*
        whenever this branch ranks no such gid (:meth:`rank_of_gid`),
        even if a sibling already named it.
        """
        keys, cells = _key_cells(values)
        gid_of, key_of = self._gid_of, self._key_of
        for key in keys:
            if key not in gid_of:
                gid_of[key] = len(key_of)
                key_of.append(key)
        gids = np.fromiter(map(gid_of.__getitem__, keys),
                           dtype=np.int64, count=len(keys))
        ranks = self._ranks_of_gids(gids)
        unheld = [key for key, rank in zip(keys, ranks.tolist())
                  if rank < 0]
        old_distinct = len(self.gid_sorted)
        if not unheld:
            return self, ColumnExtension(
                np.arange(old_distinct, dtype=np.int64), ranks[cells])
        fresh = _sorted_distinct(unheld)
        try:
            positions = np.fromiter(
                (bisect_left(self.gid_sorted, key, key=key_of.__getitem__)
                 for key in fresh), dtype=np.int64, count=len(fresh))
        except TypeError:
            # keys of some exotic non-comparable type: rebuild the
            # merged order the same way from_values would
            return self._extend_incomparable(fresh, gids[cells])
        # fresh key j lands at rank positions[j] + j; the old ranks
        # fill the other slots, in order
        fresh_ranks = positions + np.arange(len(fresh))
        slots = np.ones(old_distinct + len(fresh), dtype=bool)
        slots[fresh_ranks] = False
        remap = np.flatnonzero(slots)
        rank_of_fresh = dict(zip(fresh, fresh_ranks.tolist()))
        held = ranks >= 0
        ranks[held] = remap[ranks[held]]
        ranks[~held] = [rank_of_fresh[key] for key in unheld]
        gid_sorted = np.insert(self.gid_sorted, positions, np.fromiter(
            map(gid_of.__getitem__, fresh), dtype=np.int64,
            count=len(fresh)))
        return (ColumnKeys(gid_sorted, gid_of, key_of),
                ColumnExtension(remap, ranks[cells]))

    def _extend_incomparable(self, fresh: List[Tuple],
                             batch_gids: np.ndarray
                             ) -> Tuple["ColumnKeys", "ColumnExtension"]:
        """Slow-path extension for keys the fast merge cannot order:
        re-sort the merged key set exactly as :meth:`from_values`
        would (falling back to ``repr`` order), so incremental and
        from-scratch encodings agree on any hashable value type."""
        sorted_keys = self.sorted_keys
        merged = _sorted_distinct(sorted_keys + fresh)
        position_of = {key: rank for rank, key in enumerate(merged)}
        remap = np.fromiter(
            (position_of[key] for key in sorted_keys),
            dtype=np.int64, count=len(sorted_keys))
        gid_sorted = np.fromiter(map(self._gid_of.__getitem__, merged),
                                 dtype=np.int64, count=len(merged))
        extended = ColumnKeys(gid_sorted, self._gid_of, self._key_of)
        batch_ranks = extended.rank_of_gid()[batch_gids]
        return extended, ColumnExtension(remap, batch_ranks)


class ColumnExtension:
    """What one batch did to one column's encoding.

    ``remap`` maps old rank -> new rank (monotone increasing);
    ``batch_ranks`` are the appended rows' ranks in the new domain.
    """

    __slots__ = ("remap", "batch_ranks")

    def __init__(self, remap: np.ndarray, batch_ranks: np.ndarray):
        self.remap = remap
        self.batch_ranks = batch_ranks


class EncodedRelation:
    """A relation instance reduced to dense integer rank columns.

    This is the representation all discovery algorithms consume: a list
    of numpy ``int64`` arrays, one per attribute, where ``ranks[a][t]``
    is the dense rank of tuple ``t``'s value on attribute ``a``.

    ``keys`` optionally retains the per-column :class:`ColumnKeys`
    dictionaries, which makes the relation *appendable*: batches are
    folded in by :meth:`append_values`, re-encoding only the new values
    (paper encodings are whole-snapshot; a delta fold needs the
    appendable form).

    :meth:`order` gives τ_A, the rows sorted by one attribute, which
    every swap check walks; it is sorted on first use per attribute.
    """

    __slots__ = ("names", "ranks", "n_rows", "keys", "_orders")

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
        self._orders: Dict[int, np.ndarray] = {}
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

    def order(self, index: int) -> np.ndarray:
        """τ_A for the attribute at ``index`` (Section 4.6): every row
        index, sorted by that attribute's rank.  Computed on first use
        and cached, read-only.

        It is the library's one rank sort,
        :func:`repro.kernels.rank_order` (a counting sort over the
        dense ranks in the compiled backend), which also builds level
        1's partitions.  The order is stable, though the swap kernels
        read only each A group's maximum B, so any order within equal
        ranks would serve."""
        order = self._orders.get(index)
        if order is None:
            order = kernels.rank_order(self.ranks[index])
            order.setflags(write=False)
            # two threads sorting at once keep whichever order landed
            # first, so every caller shares one cached array
            order = self._orders.setdefault(index, order)
        return order

    @property
    def rank_nbytes(self) -> int:
        """Total bytes held by the rank columns (peak-memory
        accounting)."""
        return sum(column.nbytes for column in self.ranks)

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
        sibling-branch path of :meth:`ColumnKeys.extend`.
        :meth:`drop_rows` is the delete path.
        """
        keep = np.asarray(indices, dtype=np.int64)
        ranks: List[np.ndarray] = []
        keys: Optional[List[ColumnKeys]] = (
            None if self.keys is None else [])
        for a, column_ranks in enumerate(self.ranks):
            survivors, dense = kernels.densify(column_ranks[keep])
            ranks.append(dense)
            if keys is not None:
                old = self.keys[a]
                keys.append(ColumnKeys(old.gid_sorted[survivors],
                                       old._gid_of, old._key_of))
        return EncodedRelation(self.names, ranks, keys)

    def drop_rows(self, dropped: np.ndarray) -> "EncodedRelation":
        """The encoding without the rows at ``dropped`` (distinct
        indices), derived without touching raw values.

        Each rank column loses those positions.  Its ranks stay dense
        unless a dropped row held the last copy of one, which one
        vectorized pass over the kept ranks tells: only then is the
        column re-densified, by one monotone remap, and the vanished
        gids cut from its ``gid_sorted``; otherwise its
        :class:`ColumnKeys` is shared.  The result is byte-identical
        to encoding the surviving rows from scratch, and, like
        :meth:`select_rows`, it shares the gid table, so a value whose
        last occurrence was dropped keeps its stable gid — until the
        table holds more than twice the column's distinct keys: then
        the column gets a fresh, dense table
        (:meth:`ColumnKeys.compacted`), so churn through novel values
        cannot grow it without bound.
        """
        keep = np.ones(self.n_rows, dtype=bool)
        keep[dropped] = False
        ranks: List[np.ndarray] = []
        keys: Optional[List[ColumnKeys]] = (
            None if self.keys is None else [])
        for a, column in enumerate(self.ranks):
            kept = column[keep]
            held = np.zeros(int(column.max(initial=-1)) + 1, dtype=bool)
            held[kept] = True
            column_keys = None if keys is None else self.keys[a]
            if not held.all():
                # a dropped row held the last copy of a rank: every
                # rank moves down by the vanished ranks below it
                kept = (np.cumsum(held, dtype=np.int64) - 1)[kept]
                if column_keys is not None:
                    column_keys = ColumnKeys(column_keys.gid_sorted[held],
                                             column_keys._gid_of,
                                             column_keys._key_of)
            ranks.append(kept)
            if keys is not None:
                if len(column_keys._key_of) > 2 * column_keys.n_distinct:
                    column_keys = column_keys.compacted()
                keys.append(column_keys)
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
            if extended_keys is not column_keys:
                # fresh keys shifted the old ranks
                column_ranks = extension.remap[column_ranks]
            ranks.append(np.concatenate(
                (column_ranks, extension.batch_ranks)))
            keys.append(extended_keys)
            extensions.append(extension)
        return EncodedRelation(self.names, ranks, keys), extensions
