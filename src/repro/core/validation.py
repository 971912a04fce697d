"""Dependency validation: splits, swaps, and holds-on-instance checks.

Two independent layers:

* **Canonical validators** operate on stripped partitions and rank
  columns — the machinery FASTOD uses (Section 4.6).  They run in time
  linear in the rows living inside non-singleton context classes.
* **List-based validators** implement Definitions 1-3 directly on
  lexicographic sort keys.  They are slower but follow the definitions
  so literally that they serve as the oracle for everything else
  (including for the Theorem 5 mapping itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, List,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro import kernels
from repro.core.mapping import map_list_od
from repro.core.od import (
    CanonicalFD,
    CanonicalOCD,
    ListOD,
    OrderCompatibility,
    OrderSpec,
    as_spec,
)
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation
from repro.relation.schema import iter_bits
from repro.relation.table import Relation

if TYPE_CHECKING:
    from repro.parallel.pool import ScanTask


# ----------------------------------------------------------------------
# violation witnesses (Definitions 4 and 5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Split:
    """A split w.r.t. ``X: [] ↦ A``: two tuples equal on the context but
    different on ``A`` (Definition 4)."""

    row_s: int
    row_t: int
    attribute: str

    def __str__(self) -> str:
        return (f"split on {self.attribute}: rows "
                f"{self.row_s} and {self.row_t}")


@dataclass(frozen=True)
class Swap:
    """A swap w.r.t. ``X: A ~ B``: two tuples equal on the context with
    ``s ≺_A t`` but ``t ≺_B s`` (Definition 5)."""

    row_s: int
    row_t: int
    left: str
    right: str

    def __str__(self) -> str:
        return (f"swap between {self.left} and {self.right}: rows "
                f"{self.row_s} and {self.row_t}")


# ----------------------------------------------------------------------
# canonical validators (partition-based, vectorized over the flat
# rows/offsets layout of StrippedPartition)
# ----------------------------------------------------------------------
def split_mismatch_mask(column: np.ndarray,
                        context: StrippedPartition) -> np.ndarray:
    """Per-grouped-row mask of split positions (parallel to
    ``context.rows``).

    Segmented constancy test: every grouped row's value is compared
    against its class's first value.  Dispatches through
    :mod:`repro.kernels` (one gather/repeat/compare pass in the
    reference backend, a single C sweep in the compiled one) — the
    shared kernel behind the constancy check, split witnesses, and
    violation collection.
    """
    return kernels.split_mismatch(column, context.rows, context.offsets,
                                  context.class_sizes)


def is_constant_in_classes(column: np.ndarray,
                           context: StrippedPartition) -> bool:
    """``X: [] ↦ A`` given Π*_X and A's rank column."""
    if len(context.rows) == 0:
        return True
    return not split_mismatch_mask(column, context).any()


def find_split(column: np.ndarray, context: StrippedPartition,
               attribute: str) -> Optional[Split]:
    """Return a witness pair violating ``X: [] ↦ A``, or ``None``.

    Mirrors :func:`is_constant_in_classes`; the first mismatching flat
    position identifies both the offending class (via ``searchsorted``
    on the offsets) and the witness row.
    """
    rows = context.rows
    if len(rows) == 0:
        return None
    different = np.flatnonzero(split_mismatch_mask(column, context))
    if not different.size:
        return None
    position = int(different[0])
    class_id = int(np.searchsorted(context.offsets, position,
                                   side="right")) - 1
    return Split(int(rows[context.offsets[class_id]]),
                 int(rows[position]), attribute)


def is_compatible_in_classes(column_a: np.ndarray, column_b: np.ndarray,
                             context: StrippedPartition,
                             order_a: Optional[np.ndarray] = None) -> bool:
    """``X: A ~ B`` given Π*_X and the two rank columns.

    Within each class, walking rows in ascending A, any B rank below
    the maximum B seen in *earlier* A groups is a swap.  All classes
    are checked in one :func:`repro.kernels.swap_verdicts` walk over
    ``order_a``, τ_A (:meth:`EncodedRelation.order`; sorted per call
    when omitted), which stops at the first swap.
    """
    if len(context.rows) == 0:
        return True
    if order_a is None:
        order_a = np.argsort(column_a)
    return not kernels.swap_verdicts(
        (column_a, column_b), {0: order_a}, context.rows,
        context.offsets, (0,), (1,), (False,))[0]


def swap_classes(column_a: np.ndarray, column_b: np.ndarray,
                 context: StrippedPartition,
                 order_a: Optional[np.ndarray] = None) -> np.ndarray:
    """Ids of the context classes containing at least one swap.

    One pass over all classes (``order_a`` as in
    :func:`is_compatible_in_classes`); consumers that need per-class
    witnesses (e.g. violation reporting) re-scan only the returned
    classes.
    """
    if len(context.rows) == 0:
        return np.empty(0, dtype=np.int64)
    flags = kernels.swap_flags(column_a, column_b, context.rows,
                               context.offsets, context.class_ids(),
                               order_a)
    return np.flatnonzero(flags)


def dominance_holds_ranks(columns: Sequence[np.ndarray], lhs_mask: int,
                          target: int) -> bool:
    """Pointwise-OD dominance on rank columns: ``X ↪ {B}`` holds when
    every pair dominated on the ``lhs_mask`` attributes is ordered on
    ``B`` (Ginsburg & Hull semantics, §2.1 of the paper).

    The scan-mode kernel behind ``"pointwise"`` executor tasks — rank
    columns are exactly what the worker pool publishes, so pointwise
    sweeps shard like any other scan.  Quadratic in rows with an early
    exit; an empty LHS requires a constant target, and a
    single-attribute LHS takes a sorted O(n log n) fast path.
    """
    right = columns[target]
    n = len(right)
    if n <= 1:
        return True
    lhs_indices = list(iter_bits(lhs_mask))
    if not lhs_indices:
        return bool((right == right[0]).all())
    if len(lhs_indices) == 1:
        return _single_lhs_dominance(columns[lhs_indices[0]], right)
    left = np.stack([columns[i] for i in lhs_indices], axis=1)
    for s in range(n):
        dominated = (left >= left[s]).all(axis=1)
        if (right[np.flatnonzero(dominated)] < right[s]).any():
            return False
    return True


def _single_lhs_dominance(left: np.ndarray, right: np.ndarray) -> bool:
    """|X| = 1: sort by X; the target must be constant within X ties
    and non-decreasing across strictly increasing X."""
    order = np.argsort(left, kind="stable")
    sorted_left = left[order]
    sorted_right = right[order]
    n = len(order)
    start = 0
    previous_max = None
    for stop in range(1, n + 1):
        if stop == n or sorted_left[stop] != sorted_left[start]:
            block = sorted_right[start:stop]
            if (block != block[0]).any():
                return False      # ties on X must agree on the target
            if previous_max is not None and block[0] < previous_max:
                return False
            previous_max = block[0]
            start = stop
    return True


def scan_verdicts(relation: EncodedRelation, tasks: Sequence[ScanTask],
                  context_of: Callable[[Hashable], StrippedPartition],
                  expired: Callable[[], bool]
                  ) -> Tuple[Dict[Hashable, bool], bool]:
    """Verdicts of a batch of executor scan tasks — the single mode
    dispatch shared by the coordinator (:mod:`repro.engine.executors`)
    and the pool workers (:mod:`repro.parallel.pool`), so a new or
    mistyped mode fails loudly on *both* paths instead of silently
    resolving differently per worker count.

    A task is ``(key, context_key, mode, a, b)``.  Modes: ``"swap"``,
    ``"swap_desc"`` (descending right column under rank encoding),
    ``"const"`` (``a`` constant), ``"pointwise"`` (``a`` is an LHS
    bitmask, ``b`` a target attribute; no context).  Swap tasks are
    grouped by ``context_key``: each context is resolved once
    (``context_of``) and answered by one
    :func:`repro.kernels.swap_verdicts` call over all its (A, B)
    pairs, each walking the relation's cached τ_A; an empty context
    holds for every pair without a call.  ``const`` and ``pointwise``
    tasks run one by one.  ``expired()`` is consulted before each
    task or context; once it is true the batch stops, and the returned
    flag is set.
    """
    groups: Dict[Hashable, List[ScanTask]] = {}
    singles: List[ScanTask] = []
    for task in tasks:
        mode = task[2]
        if mode in ("swap", "swap_desc"):
            groups.setdefault(task[1], []).append(task)
        elif mode in ("const", "pointwise"):
            singles.append(task)
        else:
            raise ValueError(f"unknown scan mode {mode!r}")
    columns = relation.ranks
    verdicts: Dict[Hashable, bool] = {}
    for key, context_key, mode, a, b in singles:
        if expired():
            return verdicts, True
        if mode == "const":
            verdicts[key] = is_constant_in_classes(
                columns[a], context_of(context_key))
        else:
            verdicts[key] = dominance_holds_ranks(columns, a, b)
    for context_key, group in groups.items():
        if expired():
            return verdicts, True
        context = context_of(context_key)
        if len(context.rows) == 0:
            swapped = [False] * len(group)  # no classes: no τ_A either
        else:
            pair_a = [task[3] for task in group]
            swapped = kernels.swap_verdicts(
                columns, {a: relation.order(a) for a in set(pair_a)},
                context.rows, context.offsets, pair_a,
                [task[4] for task in group],
                [task[2] == "swap_desc" for task in group]).tolist()
        for task, swap in zip(group, swapped):
            verdicts[task[0]] = not swap
    return verdicts, False


def scan_verdict(mode: str, relation: EncodedRelation, a: int,
                 b: int, context: Optional[StrippedPartition]) -> bool:
    """One scan task's verdict: a one-task :func:`scan_verdicts`."""
    verdicts, _ = scan_verdicts(relation, [(0, 0, mode, a, b)],
                                lambda _: context, lambda: False)
    return verdicts[0]


def find_swap(column_a: np.ndarray, column_b: np.ndarray,
              context: StrippedPartition, left: str,
              right: str,
              order_a: Optional[np.ndarray] = None) -> Optional[Swap]:
    """Return a witness pair violating ``X: A ~ B``, or ``None``.

    The witness is oriented so that ``row_s ≺_A row_t`` while
    ``row_t ≺_B row_s``.  Detection is one swap-kernel pass (``order_a``
    as in :func:`is_compatible_in_classes`); only the first offending
    class is re-scanned scalar-style to build the same witness pair the
    original per-class scan produced.
    """
    hits = swap_classes(column_a, column_b, context, order_a)
    if not hits.size:
        return None
    guilty_class = int(hits[0])
    start = context.offsets[guilty_class]
    stop = context.offsets[guilty_class + 1]
    return scan_find_swap(column_a, column_b,
                          context.rows[start:stop], left, right)


def scan_find_swap(column_a: np.ndarray, column_b: np.ndarray,
                   rows: np.ndarray, left: str,
                   right: str) -> Optional[Swap]:
    """Scalar witness scan over one context class (reference scan).

    Public so per-class consumers (e.g. violation collection) can
    extract witnesses from classes the vectorized pass flagged."""
    pairs = sorted(
        zip(column_a[rows].tolist(), column_b[rows].tolist(),
            rows.tolist()))
    max_b_before = None
    best_row = -1              # a row achieving max_b_before
    current_a = None
    current_max_b = None
    current_row = -1
    first = True
    for value_a, value_b, row in pairs:
        if first or value_a != current_a:
            if current_max_b is not None and (
                    max_b_before is None
                    or current_max_b > max_b_before):
                max_b_before = current_max_b
                best_row = current_row
            current_a = value_a
            current_max_b = None
            first = False
        if max_b_before is not None and value_b < max_b_before:
            return Swap(int(best_row), int(row), left, right)
        if current_max_b is None or value_b > current_max_b:
            current_max_b = value_b
            current_row = row
    return None


class CanonicalValidator:
    """Validates canonical ODs against one relation instance.

    Builds stripped partitions on demand (memoized).  This is the
    public "does this canonical OD hold?" entry point; FASTOD inlines
    equivalent logic with level-wise partition reuse.

    ``max_cached_partitions`` bounds the resident composite partitions
    (LRU eviction, see :class:`PartitionCache`) for long-lived
    validators checking many ad-hoc contexts; ``None`` (default) keeps
    every partition, the historical behavior.

    ``workers`` > 1 (or ``REPRO_WORKERS``) routes big validation scans
    through the unified engine's pooled executor
    (:class:`repro.engine.PoolExecutor`), which shards them by context
    class over a shared-memory worker pool — worthwhile for
    single-dependency checks on tall relations, where one scan is the
    whole workload.  Verdicts are identical at any worker count; the
    pool spins up lazily and only for scans past the size threshold.
    Call :meth:`close` (or rely on GC) to release the pool.
    """

    def __init__(self, relation: Union[Relation, EncodedRelation],
                 max_cached_partitions: Optional[int] = None,
                 workers: Optional[int] = None,
                 cache: Optional[PartitionCache] = None,
                 pool=None):
        if isinstance(relation, Relation):
            relation = relation.encode()
        self._relation = relation
        # an injected cache (the service catalog's warm per-dataset
        # cache) is shared across validators; an owned one dies here
        if cache is not None:
            if cache.relation is not relation:
                raise ValueError(
                    "the partition cache must wrap this relation's "
                    "encoding")
            self._cache = cache
        else:
            self._cache = PartitionCache(
                relation, max_entries=max_cached_partitions)
        self._name_to_index = {
            name: i for i, name in enumerate(relation.names)}
        from repro.engine.executors import make_executor
        self._executor = make_executor(relation, workers=workers,
                                       pool=pool)

    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    @property
    def cache(self) -> PartitionCache:
        return self._cache

    def executor_stats(self) -> dict:
        """Per-phase executor telemetry (the ``executor_stats``
        currency every engine entry point exposes)."""
        return self._executor.telemetry.snapshot()

    def timings(self) -> dict:
        """Per-phase wall clock distilled from :meth:`executor_stats`
        (the ``timings`` currency; see
        :func:`repro.engine.telemetry.build_timings`)."""
        from repro.engine.telemetry import build_timings
        return build_timings(self.executor_stats())

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        self._executor.close()

    def _index(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError:
            raise KeyError(
                f"unknown attribute {name!r}; relation has "
                f"{self._relation.names}") from None

    def _context_partition(self, context) -> StrippedPartition:
        mask = 0
        for name in context:
            mask |= 1 << self._index(name)
        return self._cache.get(mask)

    def holds(self, od: Union[CanonicalFD, CanonicalOCD]) -> bool:
        """Validity of one canonical OD on the instance."""
        if isinstance(od, CanonicalFD):
            return self.fd_holds(od)
        return self.ocd_holds(od)

    def fd_holds(self, fd: CanonicalFD) -> bool:
        if fd.is_trivial:
            return True
        return self._executor.scan_partition(
            "const", self._index(fd.attribute), 0,
            self._context_partition(fd.context))

    def ocd_holds(self, ocd: CanonicalOCD) -> bool:
        if ocd.is_trivial:
            return True
        return self._executor.scan_partition(
            "swap", self._index(ocd.left), self._index(ocd.right),
            self._context_partition(ocd.context))

    def witness(self, od: Union[CanonicalFD, CanonicalOCD]
                ) -> Optional[Union[Split, Swap]]:
        """A violating tuple pair, or ``None`` when the OD holds."""
        if isinstance(od, CanonicalFD):
            if od.is_trivial:
                return None
            column = self._relation.column(self._index(od.attribute))
            return find_split(column, self._context_partition(od.context),
                              od.attribute)
        if od.is_trivial:
            return None
        a = self._index(od.left)
        return find_swap(self._relation.column(a),
                         self._relation.column(self._index(od.right)),
                         self._context_partition(od.context),
                         od.left, od.right, self._relation.order(a))


# ----------------------------------------------------------------------
# list-based validators (definition-level oracle)
# ----------------------------------------------------------------------
def _sort_keys(relation: EncodedRelation,
               spec: OrderSpec) -> list:
    indices = [relation.names.index(name) for name in spec]
    columns = [relation.column(i) for i in indices]
    return [tuple(int(col[row]) for col in columns)
            for row in range(relation.n_rows)]


def _coerce(relation: Union[Relation, EncodedRelation]) -> EncodedRelation:
    if isinstance(relation, Relation):
        return relation.encode()
    return relation


def list_od_holds(relation: Union[Relation, EncodedRelation],
                  od: ListOD) -> bool:
    """``r ⊨ X ↦ Y`` straight from Definition 2.

    ``X ↦ Y`` holds iff, grouping tuples by their X-key: every group is
    constant on the Y-key, and ascending X-keys give non-descending
    Y-keys.
    """
    encoded = _coerce(relation)
    keys_x = _sort_keys(encoded, od.lhs)
    keys_y = _sort_keys(encoded, od.rhs)
    order = sorted(range(encoded.n_rows), key=lambda row: keys_x[row])
    previous_x = None
    group_y = None
    max_y_so_far = None
    for row in order:
        key_x, key_y = keys_x[row], keys_y[row]
        if key_x != previous_x:
            previous_x = key_x
            group_y = key_y
            if max_y_so_far is not None and key_y < max_y_so_far:
                return False
        else:
            if key_y != group_y:
                return False
        if max_y_so_far is None or key_y > max_y_so_far:
            max_y_so_far = key_y
    return True


def order_compatible(relation: Union[Relation, EncodedRelation],
                     compat: OrderCompatibility) -> bool:
    """``X ~ Y`` i.e. ``XY ↔ YX`` (Definition 3), checked as the absence
    of any swap pair (Definition 5)."""
    encoded = _coerce(relation)
    keys_x = _sort_keys(encoded, compat.lhs)
    keys_y = _sort_keys(encoded, compat.rhs)
    order = sorted(range(encoded.n_rows), key=lambda row: keys_x[row])
    previous_x = None
    max_y_before = None        # max Y over strictly smaller X groups
    current_max_y = None
    for row in order:
        key_x, key_y = keys_x[row], keys_y[row]
        if key_x != previous_x:
            if current_max_y is not None and (
                    max_y_before is None or current_max_y > max_y_before):
                max_y_before = current_max_y
            previous_x = key_x
            current_max_y = None
        if max_y_before is not None and key_y < max_y_before:
            return False
        if current_max_y is None or key_y > current_max_y:
            current_max_y = key_y
    return True


def order_equivalent(relation: Union[Relation, EncodedRelation],
                     lhs, rhs) -> bool:
    """``X ↔ Y``: both ODs hold."""
    lhs, rhs = as_spec(lhs), as_spec(rhs)
    forward = ListOD(lhs, rhs)
    return (list_od_holds(relation, forward)
            and list_od_holds(relation, forward.reversed()))


def list_od_holds_via_canonical(relation: Union[Relation, EncodedRelation],
                                od: ListOD) -> bool:
    """Validity via Theorem 5: map to canonical form and check each part.

    Must always agree with :func:`list_od_holds`; the property tests
    enforce exactly that equivalence.
    """
    validator = CanonicalValidator(_coerce(relation))
    image = map_list_od(od)
    return all(validator.holds(part) for part in image.all_ods)
