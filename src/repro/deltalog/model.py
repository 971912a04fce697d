"""Weighted (Z-set) row deltas over a relation.

A :class:`DeltaBatch` is an ordered list of ``(weight, row)`` ops with
weight ``+1`` (insert) or ``-1`` (delete); an update is its ``-old``
``+new`` decomposition.  The model is the DBSP/Z-set view of change:
one vocabulary expresses appends, retractions, and updates, so a
single LSN-prefixed log of batches can serve as the incremental
engine's input, the crash-recovery WAL, and a replication stream.

Application semantics are **deterministic and order-sensitive** — the
engine applying a batch live and a restarted process replaying the
same batch from the log must produce byte-identical row sequences
(content fingerprints hash rank columns in row order):

* ops apply in list order against the pre-batch relation plus the
  batch's own pending inserts;
* a delete consumes the *first* still-live occurrence of its row value
  in the pre-batch relation;
* a delete with no live base occurrence cancels the *most recent*
  pending insert of the same value in this batch (Z-set cancellation:
  ``+r`` then ``-r`` is a no-op);
* a delete matching neither raises :class:`~repro.errors.DataError` —
  weights in this model never go below the relation's multiset;
* surviving inserts append at the end of the relation, in op order.

Those rules live in one resolver loop (:func:`_resolve`);
:meth:`DeltaBatch.split`, :meth:`DeltaBatch.fold`,
:meth:`DeltaBatch.apply_to` and :func:`replay_relation` are views of
it.  :meth:`DeltaBatch.fold` is the one pure fold: it resolves a batch
once and keeps the resolved indices, the surviving inserts and the
final relation, so a caller can fingerprint the result, log it, and
hand the same fold to the incremental engine.

Values match as the encoder ranks them: two cells match when
:func:`repro.relation.encoding.sort_key` gives them equal keys, that
is, when they would share a rank in one column.  So ``1`` and ``1.0``
match, but ``True`` and ``1`` do not, although ``True == 1`` in Python
(booleans rank apart from numbers), and ``2**53 + 1`` matches no
float (integers key exactly).  The resolver works on ranks (Section
4.6 of the paper): it encodes only the batch's delete targets through
the relation's column dictionaries and never reads a raw row.  Values
must be hashable scalars so rows can be keyed and survive the log's
JSON round-trip.  NaN is rejected: it equals nothing, itself
included, so no delete could ever name it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import DataError
from repro.relation.encoding import sort_key
from repro.relation.table import Relation

#: one delta op: (+1 | -1, row values)
DeltaOp = Tuple[int, tuple]


def _normalize_row(row: Sequence, arity: Optional[int]) -> tuple:
    if not isinstance(row, (list, tuple)):
        raise DataError(
            f"a delta row must be a list/tuple of values, got {row!r}")
    values = tuple(row)
    if arity is not None and len(values) != arity:
        raise DataError(
            f"delta row {values!r} has {len(values)} values; "
            f"the relation has {arity} attributes")
    try:
        hash(values)
    except TypeError:
        raise DataError(
            f"delta row {values!r} contains unhashable values; "
            "rows must hold scalar values") from None
    for value in values:
        if value != value:
            raise DataError(f"delta row {values!r} contains NaN, which "
                            "is not a valid cell value")
    return values


class DeltaFold(NamedTuple):
    """One batch resolved and applied to one relation
    (:meth:`DeltaBatch.fold`).

    ``deletes`` are the sorted indices of the ``base`` rows removed,
    ``inserts`` the surviving insert rows in op order, and
    ``relation`` is ``base`` without ``deletes`` plus ``inserts``: the
    relation after the batch.  A relation derived from an encoded
    ``base`` carries a derived encoding, so fingerprinting or adopting
    it re-encodes nothing.
    """

    base: Relation
    deletes: List[int]
    inserts: List[tuple]
    relation: Relation


class DeltaBatch:
    """An ordered batch of weighted row ops.

    >>> batch = DeltaBatch.updates([((1, 2), (1, 3))])
    >>> batch.ops
    [(-1, (1, 2)), (1, (1, 3))]
    >>> batch.net_row_delta
    0
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[DeltaOp],
                 arity: Optional[int] = None):
        normalized: List[DeltaOp] = []
        for op in ops:
            try:
                weight, row = op
            except (TypeError, ValueError):
                raise DataError(
                    f"a delta op must be a (weight, row) pair, "
                    f"got {op!r}") from None
            if isinstance(weight, bool) or weight not in (1, -1):
                raise DataError(
                    f"delta weights must be +1 or -1, got {weight!r}")
            normalized.append((int(weight), _normalize_row(row, arity)))
        self.ops = normalized

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def inserts(cls, rows: Iterable[Sequence],
                arity: Optional[int] = None) -> "DeltaBatch":
        return cls([(1, row) for row in rows], arity=arity)

    @classmethod
    def deletes(cls, rows: Iterable[Sequence],
                arity: Optional[int] = None) -> "DeltaBatch":
        return cls([(-1, row) for row in rows], arity=arity)

    @classmethod
    def updates(cls, pairs: Iterable[Sequence],
                arity: Optional[int] = None) -> "DeltaBatch":
        """``(old_row, new_row)`` pairs, each decomposed ``-old +new``."""
        ops: List[Tuple[int, Sequence]] = []
        for pair in pairs:
            try:
                old, new = pair
            except (TypeError, ValueError):
                raise DataError(
                    f"an update must be an (old_row, new_row) pair, "
                    f"got {pair!r}") from None
            ops.append((-1, old))
            ops.append((1, new))
        return cls(ops, arity=arity)

    @classmethod
    def from_request(cls, body: Dict,
                     arity: Optional[int] = None) -> "DeltaBatch":
        """Build a batch from a request/params dict.

        Accepts an explicit ``ops`` list (``[[weight, row], ...]``,
        applied verbatim) and/or the convenience lists ``deletes``,
        ``updates`` (``[[old, new], ...]``), and ``inserts`` — folded
        in that order, matching the common read-modify-append flow.
        """
        ops: List[DeltaOp] = []
        explicit = body.get("ops")
        if explicit is not None:
            if not isinstance(explicit, (list, tuple)):
                raise DataError("'ops' must be a list of [weight, row]")
            ops.extend(cls(explicit, arity=arity).ops)
        if body.get("deletes"):
            ops.extend(cls.deletes(body["deletes"], arity=arity).ops)
        if body.get("updates"):
            ops.extend(cls.updates(body["updates"], arity=arity).ops)
        if body.get("inserts"):
            ops.extend(cls.inserts(body["inserts"], arity=arity).ops)
        if not ops:
            raise DataError(
                "a delta needs at least one of 'ops', 'inserts', "
                "'deletes', or 'updates'")
        batch = cls.__new__(cls)
        batch.ops = ops
        return batch

    @classmethod
    def from_dict(cls, payload: Dict,
                  arity: Optional[int] = None) -> "DeltaBatch":
        return cls(payload.get("ops") or (), arity=arity)

    def to_dict(self) -> Dict[str, object]:
        return {"ops": [[weight, list(row)] for weight, row in self.ops]}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    @property
    def n_inserts(self) -> int:
        return sum(1 for weight, _ in self.ops if weight > 0)

    @property
    def n_deletes(self) -> int:
        return sum(1 for weight, _ in self.ops if weight < 0)

    @property
    def net_row_delta(self) -> int:
        """How many rows the relation grows (or shrinks) by."""
        return sum(weight for weight, _ in self.ops)

    def __repr__(self) -> str:
        return (f"DeltaBatch(+{self.n_inserts}/-{self.n_deletes} "
                f"over {len(self.ops)} ops)")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DeltaBatch)
                and self.ops == other.ops)

    __hash__ = None  # ordered and mutable by construction

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def split(self, relation: Relation
              ) -> Tuple[List[int], List[tuple]]:
        """Resolve this batch against ``relation``: the sorted row
        indices to drop and the surviving insert rows, in op order."""
        return next(_resolve(relation, [self]))

    def fold(self, relation: Relation) -> DeltaFold:
        """Resolve this batch against ``relation`` and apply it, once
        (pure: ``relation`` is untouched)."""
        deletes, inserts = self.split(relation)
        after_deletes = relation.drop_rows(deletes) if deletes else relation
        final = (after_deletes.append_rows(inserts) if inserts
                 else after_deletes)
        return DeltaFold(relation, deletes, inserts, final)

    def apply_to(self, relation: Relation) -> Relation:
        """The relation after this batch (pure; no engine state)."""
        return self.fold(relation).relation


def _identity(row: tuple) -> tuple:
    """A row's value identity: its cells' encoder keys."""
    return tuple(map(sort_key, row))


#: odd 64-bit multiplier of :func:`_row_keys` (the golden ratio's bits)
_KEY_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_keys(columns: Sequence[np.ndarray]) -> np.ndarray:
    """A fixed-width key of every row's rank tuple (one or more equally
    long columns): one multiply and one xor per column, wrapping at 64
    bits.  Equal rank tuples get equal keys; distinct ones rarely
    collide, so a key match only nominates a row."""
    keys = np.zeros(len(columns[0]), dtype=np.uint64)
    for column in columns:
        keys *= _KEY_MIX
        keys ^= np.asarray(column, dtype=np.int64).view(np.uint64)
    return keys


def _live_positions(relation: Relation, targets: Set[tuple]
                    ) -> Dict[tuple, Deque[int]]:
    """The FIFO of ``relation`` positions holding each target identity.

    Each column's dictionary turns the targets' keys into ranks (a key
    the column does not hold rules its target out).  Every row's
    :func:`_row_keys` key is matched against the targets' in one
    vectorized pass, and each candidate is checked rank for rank."""
    encoded = relation.encode()
    ordered = list(targets)
    per_column = [
        encoded.keys[a].ranks_of([ident[a] for ident in ordered]).tolist()
        for a in range(relation.arity)]
    wanted: Dict[tuple, tuple] = {}
    for ident, ranks in zip(ordered, zip(*per_column)):
        if min(ranks) >= 0:
            wanted[ranks] = ident
    live: Dict[tuple, Deque[int]] = {}
    if not wanted:
        return live
    target_keys = _row_keys(np.array(list(wanted), dtype=np.int64).T)
    candidates = np.flatnonzero(
        np.isin(_row_keys(encoded.ranks), target_keys))
    for position, ranks in zip(
            candidates.tolist(),
            zip(*(column[candidates].tolist() for column in encoded.ranks))):
        ident = wanted.get(ranks)
        if ident is not None:
            live.setdefault(ident, deque()).append(position)
    return live


def _resolve(relation: Relation, batches: Sequence[DeltaBatch]
             ) -> Iterator[Tuple[List[int], List[tuple]]]:
    """Resolve ``batches`` in order against ``relation``, yielding per
    batch the sorted positions its deletes remove and its surviving
    inserts.

    Positions number the relation's rows, then every surviving insert
    in the order it lands.  Rows match by :func:`_identity`, the
    encoder's key equality.  Only identities some batch deletes are
    indexed, each as a FIFO of its live positions; the relation's are
    found on its rank columns (:func:`_live_positions`, which encodes
    the relation when it is not yet), so the cost is a few vectorized
    passes over the relation plus Python work per op and per matching
    row.  Insert-only batches key nothing.
    """
    arity = relation.arity
    deleting = any(weight < 0 for batch in batches for weight, _ in batch.ops)
    keyed = [[(weight, row, _identity(row) if deleting else None)
              for weight, row in batch.ops] for batch in batches]
    targets = {ident for ops in keyed for weight, row, ident in ops
               if weight < 0 and len(row) == arity}
    live = _live_positions(relation, targets) if targets else {}
    n_positions = relation.n_rows
    for ops in keyed:
        deletes: List[int] = []
        pending: List[Tuple[tuple, tuple]] = []
        for weight, row, ident in ops:
            if len(row) != arity:
                raise DataError(
                    f"delta row {row!r} has {len(row)} values; "
                    f"the relation has {arity} attributes")
            if weight > 0:
                pending.append((row, ident))
                continue
            positions = live.get(ident)
            if positions:
                deletes.append(positions.popleft())
                continue
            for i in range(len(pending) - 1, -1, -1):
                if pending[i][1] == ident:
                    del pending[i]
                    break
            else:
                raise DataError(
                    f"delta deletes row {row!r}, which has no "
                    "remaining occurrence in the relation or this "
                    "batch's inserts")
        for offset, (_, ident) in enumerate(pending):
            if ident in targets:
                live.setdefault(ident, deque()).append(n_positions + offset)
        n_positions += len(pending)
        deletes.sort()
        yield deletes, [row for row, _ in pending]


def replay_relation(relation: Relation,
                    batches: Iterable[DeltaBatch]) -> Relation:
    """Fold many batches over ``relation`` in one pass.

    Equal to ``for b in batches: relation = b.apply_to(relation)`` (the
    property tests assert it), but a boot-time replay of thousands of
    logged batches resolves them in one :func:`_resolve` pass, then
    appends every surviving insert once and drops every dead position
    once, never building the intermediate relations.  When any batch
    deletes, the resolver encodes ``relation`` (if it is not yet) and
    the result carries a derived encoding, so fingerprinting it
    re-encodes nothing.
    """
    dead: List[int] = []
    inserted: List[tuple] = []
    for deletes, inserts in _resolve(relation, list(batches)):
        dead.extend(deletes)
        inserted.extend(inserts)
    grown = relation.append_rows(inserted) if inserted else relation
    return grown.drop_rows(dead) if dead else grown


__all__ = ["DeltaBatch", "DeltaFold", "DeltaOp", "replay_relation"]
