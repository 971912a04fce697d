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
once and keeps every stage (resolved indices, surviving inserts, the
post-delete and final relations), so a caller can fingerprint the
result, log it, and hand the same fold to the incremental engine.

Values match as the encoder ranks them: by Python equality, except
that a boolean matches only a boolean.  So ``1`` and ``1.0`` match
(they share a rank), but ``True`` and ``1`` do not, although
``True == 1`` in Python (:func:`repro.relation.encoding.sort_key`
ranks booleans apart from numbers).  Values must be hashable scalars
so rows can be indexed and survive the log's JSON round-trip.  NaN is
rejected: it equals nothing, itself included, so no delete could ever
name it.
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
    ``kept`` the surviving ones (all of ``base`` when nothing was
    deleted), ``inserts`` the surviving insert rows in op order.
    ``after_deletes`` is ``base`` without ``deletes`` and ``relation``
    is ``after_deletes`` plus ``inserts``: the relation after the
    batch.  Relations derived from an encoded ``base`` carry derived
    encodings, so fingerprinting or adopting them re-encodes nothing.
    """

    base: Relation
    deletes: List[int]
    inserts: List[tuple]
    kept: Sequence[int]
    after_deletes: Relation
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
            weight = int(weight)
            if weight not in (1, -1):
                raise DataError(
                    f"delta weights must be +1 or -1, got {weight}")
            normalized.append((weight, _normalize_row(row, arity)))
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
        kept: Sequence[int] = range(relation.n_rows)
        after_deletes = relation
        if deletes:
            kept = np.delete(np.arange(relation.n_rows), deletes).tolist()
            after_deletes = relation.select_rows(kept)
        final = (after_deletes.append_rows(inserts) if inserts
                 else after_deletes)
        return DeltaFold(relation, deletes, inserts, kept, after_deletes,
                         final)

    def apply_to(self, relation: Relation) -> Relation:
        """The relation after this batch (pure; no engine state)."""
        return self.fold(relation).relation


def _bool_cells(row: tuple) -> tuple:
    """Which cells of ``row`` are booleans: the part of a row's value
    identity Python equality drops (``True == 1``)."""
    return tuple(isinstance(value, (bool, np.bool_)) for value in row)


def _resolve(relation: Relation, batches: Sequence[DeltaBatch]
             ) -> Iterator[Tuple[List[int], List[tuple]]]:
    """Resolve ``batches`` in order against ``relation``, yielding per
    batch the sorted positions its deletes remove and its surviving
    inserts.

    Positions number the relation's rows, then every surviving insert
    in the order it lands.  Only values some batch deletes are
    indexed, each as a FIFO of its live positions keyed by the row and
    its :func:`_bool_cells`: the relation scan is unavoidable, but
    keeping other values out of the dict makes it one membership probe
    per row.
    """
    arity = relation.arity
    targets = {row for batch in batches
               for weight, row in batch.ops if weight < 0}
    live: Dict[tuple, Deque[int]] = {}
    if targets:
        columns = [relation.column_at(i) for i in range(arity)]
        for position, row in enumerate(zip(*columns)):
            if row in targets:
                live.setdefault((row, _bool_cells(row)),
                                deque()).append(position)
    n_positions = relation.n_rows
    for batch in batches:
        deletes: List[int] = []
        pending: List[tuple] = []
        for weight, row in batch.ops:
            if len(row) != arity:
                raise DataError(
                    f"delta row {row!r} has {len(row)} values; "
                    f"the relation has {arity} attributes")
            if weight > 0:
                pending.append(row)
                continue
            bools = _bool_cells(row)
            positions = live.get((row, bools))
            if positions:
                deletes.append(positions.popleft())
                continue
            for i in range(len(pending) - 1, -1, -1):
                if pending[i] == row and _bool_cells(pending[i]) == bools:
                    del pending[i]
                    break
            else:
                raise DataError(
                    f"delta deletes row {row!r}, which has no "
                    "remaining occurrence in the relation or this "
                    "batch's inserts")
        if targets:
            for offset, row in enumerate(pending):
                if row in targets:
                    live.setdefault((row, _bool_cells(row)),
                                    deque()).append(n_positions + offset)
        n_positions += len(pending)
        deletes.sort()
        yield deletes, pending


def replay_relation(relation: Relation,
                    batches: Iterable[DeltaBatch]) -> Relation:
    """Fold many batches over ``relation`` in one pass.

    Equal to ``for b in batches: relation = b.apply_to(relation)`` (the
    property tests assert it), but a boot-time replay of thousands of
    logged batches resolves them in one :func:`_resolve` pass and
    builds the final relation once, never the intermediate ones.
    """
    dead: Set[int] = set()
    inserted: List[tuple] = []
    for deletes, inserts in _resolve(relation, list(batches)):
        dead.update(deletes)
        inserted.extend(inserts)
    rows = [*relation.rows(), *inserted]
    return Relation.from_rows(
        relation.names,
        [row for position, row in enumerate(rows) if position not in dead])


__all__ = ["DeltaBatch", "DeltaFold", "DeltaOp", "replay_relation"]
