"""Bidirectional ODs — mixed ascending/descending orders.

Section 7 of the paper names extending FASTOD to bidirectional ODs
(introduced in [25]) as future work.  This module supplies the
building blocks:

* directed order specifications (``salary DESC, tax ASC``),
* a validator for bidirectional list ODs (Definition 2 generalized),
* contextual bidirectional order compatibility ``X: A↑ ~ B↓`` and a
  minimal-discovery sweep over bounded context sizes, run level-wise
  through the unified engine (:mod:`repro.engine`): each level's
  constancy and polarity checks are independent, so they batch into
  executor validations — serial by default, split across threads
  with ``workers`` (the ``"swap_desc"`` scan mode; the calling
  thread derives every context first), and bounded by a shared
  :class:`~repro.engine.DeadlineBudget` via ``timeout_seconds``.

Under rank encoding, descending order is ascending order of the
negated ranks, so every unidirectional algorithm piece is reused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import List, Optional, Sequence, Tuple, Union


from repro.core.validation import is_compatible_in_classes
from repro.engine.budget import DeadlineBudget
from repro.engine.executors import make_executor
from repro.engine.telemetry import build_timings
from repro.errors import DependencyError
from repro.partitions.cache import PartitionCache
from repro.relation.schema import bit_count, iter_bits
from repro.relation.table import Relation


class Direction(Enum):
    """Sort direction of one attribute in a directed specification."""

    ASC = "asc"
    DESC = "desc"

    def __str__(self) -> str:
        return self.value

    @property
    def flipped(self) -> "Direction":
        return Direction.DESC if self is Direction.ASC else Direction.ASC


@dataclass(frozen=True)
class DirectedAttr:
    """One attribute with a direction, e.g. ``salary DESC``."""

    name: str
    direction: Direction = Direction.ASC

    def __str__(self) -> str:
        return f"{self.name} {self.direction.value}"


def directed(*items: Union[str, Tuple[str, str], DirectedAttr]
             ) -> Tuple[DirectedAttr, ...]:
    """Build a directed spec from strings ("a", "b desc") or tuples.

    >>> [str(d) for d in directed("a", "b desc", ("c", "asc"))]
    ['a asc', 'b desc', 'c asc']
    """
    out: List[DirectedAttr] = []
    for item in items:
        if isinstance(item, DirectedAttr):
            out.append(item)
        elif isinstance(item, tuple):
            name, dir_text = item
            out.append(DirectedAttr(name, Direction(dir_text.lower())))
        elif isinstance(item, str):
            parts = item.split()
            if len(parts) == 1:
                out.append(DirectedAttr(parts[0]))
            elif len(parts) == 2:
                out.append(DirectedAttr(parts[0],
                                        Direction(parts[1].lower())))
            else:
                raise DependencyError(f"bad directed attribute: {item!r}")
        else:
            raise DependencyError(f"bad directed attribute: {item!r}")
    return tuple(out)


@dataclass(frozen=True)
class BidirectionalOD:
    """``X ↦ Y`` where both sides carry per-attribute directions."""

    lhs: Tuple[DirectedAttr, ...]
    rhs: Tuple[DirectedAttr, ...]

    def __str__(self) -> str:
        left = ",".join(str(d) for d in self.lhs)
        right = ",".join(str(d) for d in self.rhs)
        return f"[{left}] -> [{right}]"


def _directed_keys(relation, spec: Sequence[DirectedAttr]) -> list:
    index = {name: i for i, name in enumerate(relation.names)}
    columns = []
    for attr in spec:
        ranks = relation.column(index[attr.name])
        columns.append(ranks if attr.direction is Direction.ASC else -ranks)
    return [tuple(int(col[row]) for col in columns)
            for row in range(relation.n_rows)]


def bidirectional_od_holds(relation: Relation, od: BidirectionalOD) -> bool:
    """Definition 2 with directed lexicographic orders."""
    encoded = relation.encode()
    keys_x = _directed_keys(encoded, od.lhs)
    keys_y = _directed_keys(encoded, od.rhs)
    order = sorted(range(encoded.n_rows), key=lambda row: keys_x[row])
    previous_x = None
    group_y = None
    max_y = None
    for row in order:
        key_x, key_y = keys_x[row], keys_y[row]
        if key_x != previous_x:
            previous_x, group_y = key_x, key_y
            if max_y is not None and key_y < max_y:
                return False
        elif key_y != group_y:
            return False
        if max_y is None or key_y > max_y:
            max_y = key_y
    return True


@dataclass(frozen=True)
class BidirectionalOCD:
    """Contextual directed order compatibility ``X: A dir_a ~ B dir_b``.

    Stored with the lexicographically smaller attribute first; the two
    polarity classes are ``same`` (asc/asc ≡ desc/desc) and
    ``opposite`` (asc/desc ≡ desc/asc).
    """

    context: frozenset
    left: str
    right: str
    same_direction: bool

    def __str__(self) -> str:
        mark = "~" if self.same_direction else "~desc"
        context = "{" + ",".join(sorted(self.context)) + "}"
        return f"{context}: {self.left} {mark} {self.right}"


def bidirectional_ocd_holds(relation: Relation, context: Sequence[str],
                            left: str, right: str,
                            same_direction: bool = True) -> bool:
    """No directed swap between two attributes within context classes."""
    encoded = relation.encode()
    index = {name: i for i, name in enumerate(encoded.names)}
    mask = 0
    for name in context:
        mask |= 1 << index[name]
    partition = PartitionCache(encoded).get(mask)
    column_a = encoded.column(index[left])
    column_b = encoded.column(index[right])
    if not same_direction:
        column_b = -column_b
    return is_compatible_in_classes(column_a, column_b, partition,
                                    encoded.order(index[left]))


@dataclass
class BidirectionalDiscoveryResult:
    """Minimal directed OCDs up to a context-size bound."""

    ocds: List[BidirectionalOCD] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    #: per-phase executor telemetry (the engine's uniform currency)
    executor_stats: Optional[dict] = None
    #: per-phase wall clock distilled from ``executor_stats`` (the
    #: ``timings`` currency)
    timings: Optional[dict] = None

    @property
    def opposite_only(self) -> List[BidirectionalOCD]:
        """Pairs compatible only with opposite directions — invisible
        to ascending-only FASTOD (e.g. age vs. birth year)."""
        same = {(o.context, o.left, o.right)
                for o in self.ocds if o.same_direction}
        return [o for o in self.ocds
                if not o.same_direction
                and (o.context, o.left, o.right) not in same]


def discover_bidirectional_ocds(relation: Relation,
                                max_context: int = 1, *,
                                workers: Optional[int] = None,
                                timeout_seconds: Optional[float] = None
                                ) -> BidirectionalDiscoveryResult:
    """Minimal directed OCDs with contexts up to ``max_context``.

    Both polarities are checked per pair; minimality mirrors the
    unidirectional rules (subset contexts and Propagate through
    constancy), applied per polarity.

    The sweep is level-wise over context sizes.  Within one level no
    context can cover another (covers are strict subsets, hence
    strictly smaller), so a level's constancy checks batch into one
    executor validation and its polarity checks into another —
    identical output at any worker count.  A ``timeout_seconds``
    budget returns the OCDs confirmed so far with ``timed_out=True``.
    """
    started = time.perf_counter()
    budget = DeadlineBudget(timeout_seconds)
    encoded = relation.encode()
    executor = make_executor(encoded, workers=workers)
    names = encoded.names
    arity = encoded.arity
    result = BidirectionalDiscoveryResult()
    emitted = {}       # (a, b, same) -> contexts already emitted
    constant_at = {}   # attribute -> context masks where constant

    def covered(store, key, context_mask) -> bool:
        return any(prior & context_mask == prior
                   for prior in store.get(key, []))

    try:
        for level in range(min(max_context, arity) + 1):
            masks = [mask for mask in range(1 << arity)
                     if bit_count(mask) == level]
            if budget.hit():
                result.timed_out = True
                break

            # -- constancy: which outside attributes are constant here
            const_tasks = []
            for mask in masks:
                for attribute in range(arity):
                    if mask & (1 << attribute):
                        continue
                    if covered(constant_at, attribute, mask):
                        continue
                    const_tasks.append(((mask, attribute), mask,
                                        "const", attribute, 0))
            verdicts, cut = executor.run_validations(
                const_tasks, budget, phase="bidirectional-const")
            for key, mask, _mode, attribute, _b in const_tasks:
                if verdicts.get(key):
                    constant_at.setdefault(attribute, []).append(mask)
            if cut:
                result.timed_out = True
                break

            # -- polarity checks for the non-constant outside pairs
            pair_tasks = []
            for mask in masks:
                outside = [a for a in range(arity)
                           if not mask & (1 << a)]
                for a, b in combinations(outside, 2):
                    if covered(constant_at, a, mask) \
                            or covered(constant_at, b, mask):
                        continue
                    for same in (True, False):
                        if covered(emitted, (a, b, same), mask):
                            continue
                        pair_tasks.append((
                            (mask, a, b, same), mask,
                            "swap" if same else "swap_desc", a, b))
            verdicts, cut = executor.run_validations(
                pair_tasks, budget, phase="bidirectional-pairs")
            for key, mask, _mode, a, b in pair_tasks:
                if not verdicts.get(key):
                    continue
                _mask, _a, _b, same = key
                result.ocds.append(BidirectionalOCD(
                    frozenset(names[i] for i in iter_bits(mask)),
                    names[a], names[b], same))
                emitted.setdefault((a, b, same), []).append(mask)
            if cut:
                result.timed_out = True
                break
    finally:
        result.executor_stats = executor.telemetry.snapshot()
        result.timings = build_timings(result.executor_stats)
        executor.close()
    result.elapsed_seconds = time.perf_counter() - started
    return result
