"""Incremental OD monitoring for append-only data.

A warehouse loads data continuously; re-validating every constraint
from scratch per batch is wasteful.  :class:`ODMonitor` maintains, per
canonical OD, just enough per-context-class state to decide in
O(log k) per tuple whether an insert introduces a violation:

* constancy ``X: [] ↦ A`` — the single admissible A value per class;
* compatibility ``X: A ~ B`` — per class, the set of A-groups as
  disjoint B-intervals kept in ascending A order; an insert violates
  iff some lower A-group reaches above it or some higher A-group dips
  below it (checked against neighbours via bisection, since accepted
  state always keeps group intervals monotone).

Values are compared through :func:`repro.relation.encoding.sort_key`,
so the monitor never needs a global rank encoding and accepts unseen
values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.od import CanonicalFD, CanonicalOCD
from repro.core.parser import parse
from repro.relation.encoding import sort_key
from repro.relation.table import Relation

CanonicalOD = Union[CanonicalFD, CanonicalOCD]


@dataclass
class RejectedInsert:
    """Why one tuple was rejected (or flagged) by the monitor."""

    row: Tuple[Any, ...]
    od: CanonicalOD
    reason: str

    def __str__(self) -> str:
        return f"insert {self.row!r} violates {self.od}: {self.reason}"


class FdClassState:
    """Per-class constant tracking for one constancy OD.

    Class keys are any hashable identity for a context class; the
    monitor uses context-value tuples."""

    __slots__ = ("constants",)

    def __init__(self):
        self.constants: Dict[tuple, tuple] = {}

    def check(self, context_key: tuple, value: tuple) -> Optional[str]:
        existing = self.constants.get(context_key)
        if existing is not None and existing != value:
            return (f"attribute must stay constant per context class; "
                    f"class already holds a different value")
        return None

    def accept(self, context_key: tuple, value: tuple) -> None:
        self.constants.setdefault(context_key, value)


class OcdClassState:
    """Per-class A-group interval tracking for one compatibility OD.

    For each context class we keep the A-groups as three parallel
    sorted lists — A keys, interval minima and maxima over B — so a
    point is located with one O(log k) bisection straight on the key
    list.  In an accepted (violation-free) state the B-intervals are
    non-overlapping and ascending with A, so a new point only needs
    comparing with its immediate A-neighbours.

    Class keys are any hashable identity (see :class:`FdClassState`).
    """

    __slots__ = ("classes",)

    def __init__(self):
        #: context class -> (a_keys, min_bs, max_bs), parallel & sorted
        self.classes: Dict[tuple, Tuple[list, list, list]] = {}

    def check(self, context_key: tuple, a_key: tuple,
              b_key: tuple) -> Optional[str]:
        entry = self.classes.get(context_key)
        if entry is None:
            return None
        a_keys, min_bs, max_bs = entry
        position = bisect_left(a_keys, a_key)
        if position < len(a_keys) and a_keys[position] == a_key:
            # joining an existing A-group widens its interval
            left_ok = (position == 0
                       or max_bs[position - 1] <= b_key)
            right_ok = (position == len(a_keys) - 1
                        or b_key <= min_bs[position + 1])
            if not left_ok:
                return "a lower A-group already holds a larger B"
            if not right_ok:
                return "a higher A-group already holds a smaller B"
            return None
        if position > 0 and max_bs[position - 1] > b_key:
            return "a lower A-group already holds a larger B"
        if position < len(a_keys) and min_bs[position] < b_key:
            return "a higher A-group already holds a smaller B"
        return None

    def accept(self, context_key: tuple, a_key: tuple,
               b_key: tuple) -> None:
        entry = self.classes.get(context_key)
        if entry is None:
            entry = ([], [], [])
            self.classes[context_key] = entry
        a_keys, min_bs, max_bs = entry
        position = bisect_left(a_keys, a_key)
        if position < len(a_keys) and a_keys[position] == a_key:
            if b_key < min_bs[position]:
                min_bs[position] = b_key
            if b_key > max_bs[position]:
                max_bs[position] = b_key
        else:
            a_keys.insert(position, a_key)
            min_bs.insert(position, b_key)
            max_bs.insert(position, b_key)


class ODMonitor:
    """Validates inserts against a set of canonical ODs incrementally.

    >>> monitor = ODMonitor(["month", "quarter"],
    ...                     ["{}: month ~ quarter"])
    >>> monitor.insert((1, 1)) is None
    True
    >>> monitor.insert((2, 1)) is None
    True
    >>> print(monitor.insert((3, 0)).reason)
    a lower A-group already holds a larger B
    """

    def __init__(self, attribute_names: Sequence[str],
                 dependencies: Sequence[Union[CanonicalOD, str]],
                 *, reject_violations: bool = True):
        self._names = tuple(attribute_names)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._reject = reject_violations
        self._ods: List[CanonicalOD] = []
        self._states: List[Union[FdClassState, OcdClassState]] = []
        self._violations: List[RejectedInsert] = []
        self.n_accepted = 0
        for dependency in dependencies:
            if isinstance(dependency, str):
                dependency = parse(dependency)
            if not isinstance(dependency, (CanonicalFD, CanonicalOCD)):
                raise TypeError(
                    f"ODMonitor takes canonical ODs, got {dependency!r}")
            for name in self._attrs_of(dependency):
                if name not in self._index:
                    raise KeyError(
                        f"dependency {dependency} mentions unknown "
                        f"attribute {name!r}")
            self._ods.append(dependency)
            self._states.append(
                FdClassState() if isinstance(dependency, CanonicalFD)
                else OcdClassState())

    @staticmethod
    def _attrs_of(od: CanonicalOD):
        if isinstance(od, CanonicalFD):
            return set(od.context) | {od.attribute}
        return set(od.context) | {od.left, od.right}

    @property
    def dependencies(self) -> List[CanonicalOD]:
        return list(self._ods)

    @property
    def violations(self) -> List[RejectedInsert]:
        """Violating inserts seen so far (only populated in
        flag-don't-reject mode, where offending tuples are dropped from
        the maintained state but recorded here)."""
        return list(self._violations)

    # ------------------------------------------------------------------
    def _keys(self, od: CanonicalOD, row: Sequence[Any]):
        context_key = tuple(
            sort_key(row[self._index[name]])
            for name in sorted(od.context))
        if isinstance(od, CanonicalFD):
            return context_key, (sort_key(row[self._index[od.attribute]]),)
        return (context_key,
                (sort_key(row[self._index[od.left]]),),
                (sort_key(row[self._index[od.right]]),))

    def insert(self, row: Sequence[Any]) -> Optional[RejectedInsert]:
        """Try to append one tuple.

        Returns ``None`` on success.  On violation: in reject mode the
        state is left untouched and the rejection returned; in flag
        mode the rejection is recorded and returned, and the tuple is
        *not* folded into the state (so later inserts are judged
        against the clean history).
        """
        row = tuple(row)
        if len(row) != len(self._names):
            raise ValueError(
                f"expected {len(self._names)} values, got {len(row)}")
        for od, state in zip(self._ods, self._states):
            if isinstance(od, CanonicalFD):
                context_key, value = self._keys(od, row)
                reason = state.check(context_key, value)
            else:
                context_key, a_key, b_key = self._keys(od, row)
                reason = state.check(context_key, a_key, b_key)
            if reason is not None:
                rejected = RejectedInsert(row, od, reason)
                self._violations.append(rejected)
                return rejected
        for od, state in zip(self._ods, self._states):
            if isinstance(od, CanonicalFD):
                context_key, value = self._keys(od, row)
                state.accept(context_key, value)
            else:
                context_key, a_key, b_key = self._keys(od, row)
                state.accept(context_key, a_key, b_key)
        self.n_accepted += 1
        return None

    def insert_many(self, rows) -> List[RejectedInsert]:
        """Insert a batch; returns all rejections."""
        rejections = []
        for row in rows:
            rejected = self.insert(row)
            if rejected is not None:
                rejections.append(rejected)
        return rejections

    @classmethod
    def from_relation(cls, relation: Relation,
                      dependencies: Sequence[Union[CanonicalOD, str]]
                      ) -> "ODMonitor":
        """Seed a monitor with an existing (assumed clean) relation.

        Raises :class:`ValueError` if the existing data already
        violates one of the dependencies.
        """
        monitor = cls(relation.names, dependencies)
        for row in relation.rows():
            rejected = monitor.insert(row)
            if rejected is not None:
                raise ValueError(
                    f"existing data violates a dependency: {rejected}")
        return monitor
