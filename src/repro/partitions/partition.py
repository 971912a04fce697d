"""Stripped partitions (Π*) over attribute sets — flat NumPy layout.

A partition Π_X groups tuples into equivalence classes by their values
on the attribute set X.  A *stripped* partition (paper Section 4.6,
Example 12) drops singleton classes — they can never falsify a
canonical OD (Lemma 14) — which keeps both memory and validation time
proportional to the number of "interesting" tuples.

Representation
--------------
Classes are stored *stripped and flat*: one contiguous ``int64`` array
``rows`` holding every grouped row, class after class, plus an
``offsets`` array of length ``n_classes + 1`` so that class ``i`` is
``rows[offsets[i]:offsets[i + 1]]``.  The layout is the CSR-style
encoding used throughout NumPy-backed group-by engines and buys:

* O(1) measures — ``n_classes``, ``||Π*||`` and the TANE error
  ``e(X)`` read straight off array lengths;
* vectorized construction — :meth:`from_ranks` is one stable rank
  order (:func:`repro.kernels.rank_order`, a counting sort in the
  compiled backend) plus one boundary scan (``np.diff``/
  ``np.flatnonzero``), with no Python-level per-row work;
* one refinement path — :func:`level_products` builds every product of
  a lattice level with one :func:`repro.kernels.partition_products`
  call (the NumPy reference backend groups composite ``(other-class,
  self-class)`` keys with one sort per product, the compiled backend
  refines in one C pass per product), and :meth:`product` is its
  one-task view; a product with a superkey side is empty without any
  kernel call;
* segmented validation — the split/swap kernels in
  :mod:`repro.core.validation` reduce over ``rows``/``offsets``
  directly, through the same dispatcher.

The legacy ``classes`` list-of-lists view is kept as a lazily
materialized property so existing consumers (violation counting,
extensions, tests) keep working unchanged; hot paths should prefer
``rows``/``offsets``/``class_sizes``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.kernels.reference import strip_sorted_runs as _strip_sorted_runs
from repro.relation.encoding import EncodedRelation

#: Shared sentinels aliased into every empty partition; frozen so an
#: in-place write through one partition's ``rows``/``offsets`` cannot
#: corrupt every other empty partition process-wide.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.setflags(write=False)
_ZERO_OFFSET = np.zeros(1, dtype=np.int64)
_ZERO_OFFSET.setflags(write=False)


class StrippedPartition:
    """Equivalence classes of size >= 2 over some attribute set.

    ``rows`` is the flat ``int64`` array of all grouped row indices and
    ``offsets`` its class-boundary array (``offsets[0] == 0``,
    ``offsets[-1] == len(rows)``); class ``i`` lives at
    ``rows[offsets[i]:offsets[i + 1]]``.  ``n_rows`` is the size of the
    underlying relation (needed because stripped classes alone do not
    reveal it).
    """

    __slots__ = ("rows", "offsets", "n_rows", "_row_to_class", "_classes",
                 "_class_ids")

    def __init__(self, classes: Sequence[Sequence[int]], n_rows: int):
        if classes:
            sizes = np.fromiter((len(c) for c in classes), dtype=np.int64,
                                count=len(classes))
            self.rows = np.fromiter(
                (row for c in classes for row in c), dtype=np.int64,
                count=int(sizes.sum()))
            self.offsets = np.concatenate(
                (_ZERO_OFFSET, np.cumsum(sizes)))
        else:
            self.rows = _EMPTY_ROWS
            self.offsets = _ZERO_OFFSET
        self.n_rows = n_rows
        self._row_to_class: Optional[np.ndarray] = None
        self._classes: Optional[List[List[int]]] = None
        self._class_ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_flat(cls, rows: np.ndarray, offsets: np.ndarray,
                  n_rows: int) -> "StrippedPartition":
        """Adopt (not copy) a prebuilt flat layout."""
        partition = cls.__new__(cls)
        partition.rows = rows
        partition.offsets = offsets
        partition.n_rows = n_rows
        partition._row_to_class = None
        partition._classes = None
        partition._class_ids = None
        return partition

    @classmethod
    def from_ranks(cls, ranks: np.ndarray) -> "StrippedPartition":
        """Partition by a single rank-encoded column.

        One stable rank order (:func:`repro.kernels.rank_order`: a
        counting sort over dense ranks, O(n)) sorts rows by rank;
        boundaries fall where consecutive sorted ranks differ.  Runs
        of length >= 2 between boundaries become the stripped classes.
        """
        n = len(ranks)
        if n == 0:
            return cls.from_flat(_EMPTY_ROWS, _ZERO_OFFSET, 0)
        order = kernels.rank_order(ranks)
        sorted_ranks = ranks[order]
        return cls.from_flat(
            *_strip_sorted_runs(order, sorted_ranks), n)

    @classmethod
    def single_class(cls, n_rows: int) -> "StrippedPartition":
        """Π over the empty attribute set: every tuple is equivalent."""
        if n_rows < 2:
            return cls.from_flat(_EMPTY_ROWS, _ZERO_OFFSET, n_rows)
        return cls.from_flat(
            np.arange(n_rows, dtype=np.int64),
            np.array([0, n_rows], dtype=np.int64), n_rows)

    @classmethod
    def for_attribute(cls, relation: EncodedRelation,
                      attribute: int) -> "StrippedPartition":
        """Partition of a relation by one attribute index."""
        return cls.from_ranks(relation.column(attribute))

    # ------------------------------------------------------------------
    # measures (all O(1) on the flat layout)
    # ------------------------------------------------------------------
    @property
    def classes(self) -> List[List[int]]:
        """Legacy list-of-lists view, materialized lazily and cached.

        Prefer ``rows``/``offsets`` in hot code; this exists for
        consumers that genuinely want Python lists (display, tests,
        per-class heuristics)."""
        if self._classes is None:
            bounds = self.offsets
            flat = self.rows.tolist()
            self._classes = [
                flat[bounds[i]:bounds[i + 1]]
                for i in range(len(bounds) - 1)]
        return self._classes

    @property
    def n_classes(self) -> int:
        """Number of non-singleton classes, ``|Π*_X|``."""
        return len(self.offsets) - 1

    @property
    def n_grouped_rows(self) -> int:
        """``||Π*_X||`` — total rows living in non-singleton classes."""
        return len(self.rows)

    @property
    def class_sizes(self) -> np.ndarray:
        """Per-class sizes, ``np.diff(offsets)``."""
        return np.diff(self.offsets)

    @property
    def error(self) -> int:
        """TANE's e(X) numerator: rows that would have to be removed so
        that X becomes a superkey (``||Π*|| - |Π*||``)."""
        return len(self.rows) - (len(self.offsets) - 1)

    def is_superkey(self) -> bool:
        """True when no two tuples agree on the attribute set (Π* empty).

        Triggers the key-pruning optimizations of Lemmas 12-13.
        """
        return len(self.rows) == 0

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------
    def class_ids(self) -> np.ndarray:
        """Class id of each entry of ``rows`` (``np.repeat`` expansion).

        Cached; the expansion is reused by every vectorized kernel that
        segments the grouped rows by class."""
        if self._class_ids is None:
            self._class_ids = np.repeat(
                np.arange(self.n_classes, dtype=np.int64),
                self.class_sizes)
        return self._class_ids

    def row_to_class(self) -> np.ndarray:
        """Map row -> class id (or -1 for rows in singleton classes).

        Cached.  The product kernels build their own probe from
        ``rows``/``offsets``; this table serves callers that want it.
        """
        if self._row_to_class is None:
            table = np.full(self.n_rows, -1, dtype=np.int64)
            table[self.rows] = self.class_ids()
            self._row_to_class = table
        return self._row_to_class

    def product(self, other: "StrippedPartition") -> "StrippedPartition":
        """Π_X · Π_Y = Π_{X∪Y}: a one-task :func:`level_products`
        batch (see there for the refinement and its layout)."""
        return level_products([self, other], [(0, 1)])[0]

    # ------------------------------------------------------------------
    # expansion / comparison helpers (mostly for tests and display)
    # ------------------------------------------------------------------
    def with_singletons(self) -> List[List[int]]:
        """The full (non-stripped) partition, singletons included,
        ordered with stripped classes first then singleton rows."""
        seen = np.zeros(self.n_rows, dtype=bool)
        seen[self.rows] = True
        full = [list(c) for c in self.classes]
        full.extend([int(i)] for i in np.flatnonzero(~seen))
        return full

    def canonical_form(self) -> frozenset:
        """A hashable, order-insensitive rendering for equality tests."""
        return frozenset(frozenset(c) for c in self.classes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StrippedPartition):
            return (self.n_rows == other.n_rows
                    and self.canonical_form() == other.canonical_form())
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash((self.n_rows, self.canonical_form()))

    def __repr__(self) -> str:
        return (f"StrippedPartition(classes={self.classes!r}, "
                f"n_rows={self.n_rows})")


def level_products(parents: Sequence[StrippedPartition],
                   tasks: Sequence[Tuple[int, int]]
                   ) -> List[StrippedPartition]:
    """``parents[left] · parents[right]`` for every ``(left, right)``
    of ``tasks``, with one :func:`repro.kernels.partition_products`
    call for the whole batch — one lattice level (Section 4.6).

    This is the TANE-style refinement the paper relies on to compute
    level ``l`` partitions from two level ``l-1`` parents: each
    grouped row of the right parent is tagged with the composite key
    ``(right-class, left-class)``, and rows sharing a key form the
    refined classes (one sort per product in the reference backend,
    linear counting passes in the compiled one).  A task with a
    superkey side is empty without reaching the kernel.  The
    products are views into the call's packed output buffers, so one
    retained product keeps its level's buffers alive.
    """
    n_rows = parents[0].n_rows if parents else 0
    if any(parent.n_rows != n_rows for parent in parents):
        raise ValueError("partitions cover different relations")
    products = [StrippedPartition.from_flat(_EMPTY_ROWS, _ZERO_OFFSET,
                                            n_rows) for _ in tasks]
    # grouped by left parent, so the kernel fills one probe per parent
    live = sorted((t for t, (left, right) in enumerate(tasks)
                   if len(parents[left].rows) and len(parents[right].rows)),
                  key=lambda t: tasks[t][0])
    if not live:
        return products
    rows, offsets, spans = kernels.partition_products(
        [(parent.rows, parent.offsets) for parent in parents],
        [tasks[t] for t in live], n_rows)
    for t, (rows_at, n_grouped, offsets_at, n_classes) in zip(
            live, spans.tolist()):
        if n_grouped:
            products[t] = StrippedPartition.from_flat(
                rows[rows_at:rows_at + n_grouped],
                offsets[offsets_at:offsets_at + n_classes + 1], n_rows)
    return products


def value_group_sizes(column: np.ndarray, partition: StrippedPartition):
    """Sizes of the ``(class, value)`` groups of the grouped rows.

    Returns ``(group_sizes, owning_class)``: parallel arrays with one
    entry per distinct value per class, grouped with a single
    ``lexsort`` over ``(class, value)``.  This is the segmented
    group-by underlying split-pair counting and g3 removal counts.
    A superkey partition (no grouped rows) yields two empty arrays.
    """
    if len(partition.rows) == 0:
        return _EMPTY_ROWS, _EMPTY_ROWS
    class_ids = partition.class_ids()
    values = column[partition.rows]
    order = np.lexsort((values, class_ids))
    sorted_classes = class_ids[order]
    sorted_values = values[order]
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    new_group[1:] = ((sorted_classes[1:] != sorted_classes[:-1])
                     | (sorted_values[1:] != sorted_values[:-1]))
    group_sizes = np.bincount(np.cumsum(new_group) - 1)
    return group_sizes, sorted_classes[new_group]


def merge_batch(partition: StrippedPartition, n_rows: int,
                join_rows: np.ndarray, join_classes: np.ndarray,
                new_classes: Sequence[Sequence[int]]):
    """Merge an appended batch into the CSR rows/offsets layout.

    The delta-maintenance kernel for append-only workloads: instead of
    re-sorting the grown relation, splice the batch into the existing
    flat layout in one vectorized pass.

    ``join_rows``/``join_classes`` are parallel arrays of row indices
    landing in *existing* classes (the class ids refer to
    ``partition``); ``new_classes`` are whole new classes — batch rows
    grouping among themselves, or an old singleton promoted by batch
    rows that matched it — appended after the existing classes in the
    given order.  ``n_rows`` is the grown relation size.

    Returns ``(merged, grew)``: the merged partition and a boolean
    array over its classes flagging every class that gained rows
    (existing classes that were joined, plus all the new ones) — the
    classes incremental validation has to re-examine.

    Old class ids are preserved (class ``i`` of ``partition`` is class
    ``i`` of ``merged``), which is what lets per-class validation state
    keyed by class survive the merge.
    """
    old_sizes = partition.class_sizes
    n_old_classes = partition.n_classes
    join_rows = np.asarray(join_rows, dtype=np.int64)
    join_classes = np.asarray(join_classes, dtype=np.int64)
    counts = np.bincount(join_classes, minlength=n_old_classes) \
        if len(join_classes) else np.zeros(n_old_classes, dtype=np.int64)
    if len(counts) > n_old_classes:
        raise ValueError("join class id out of range")
    fresh_sizes = np.fromiter((len(c) for c in new_classes),
                              dtype=np.int64, count=len(new_classes))
    if (fresh_sizes < 2).any():
        raise ValueError("new classes must have at least 2 rows")

    sizes = np.concatenate((old_sizes + counts, fresh_sizes))
    offsets = np.concatenate((_ZERO_OFFSET, np.cumsum(sizes)))
    rows = np.empty(int(offsets[-1]), dtype=np.int64)

    # old rows keep their within-class position, shifted by the growth
    # of the classes before them
    if n_old_classes:
        shifts = offsets[:n_old_classes] - partition.offsets[:-1]
        positions = np.arange(len(partition.rows), dtype=np.int64)
        positions += np.repeat(shifts, old_sizes)
        rows[positions] = partition.rows
    # joining rows fill each class's tail: class start + old size +
    # rank among the class's joiners (first-occurrence arithmetic on
    # the class-sorted join list)
    if len(join_rows):
        order = np.argsort(join_classes, kind="stable")
        sorted_classes = join_classes[order]
        within = (np.arange(len(order), dtype=np.int64)
                  - np.searchsorted(sorted_classes, sorted_classes))
        rows[offsets[sorted_classes] + old_sizes[sorted_classes]
             + within] = join_rows[order]
    # brand-new classes fill the tail of the layout
    cursor = int(offsets[n_old_classes])
    for new_class in new_classes:
        rows[cursor:cursor + len(new_class)] = new_class
        cursor += len(new_class)

    merged = StrippedPartition.from_flat(rows, offsets, n_rows)
    grew = np.concatenate(
        (counts > 0, np.ones(len(new_classes), dtype=bool)))
    return merged, grew


def partition_from_columns(relation: EncodedRelation,
                           attributes: Iterable[int]) -> StrippedPartition:
    """Compute Π*_X from scratch by hashing whole projections.

    Used as the slow-but-obviously-correct reference implementation in
    property tests against :meth:`StrippedPartition.product` and
    :func:`level_products`.
    Deliberately kept as a Python-level hash loop — it is the oracle
    the vectorized kernels are validated against.
    """
    attributes = list(attributes)
    if not attributes:
        return StrippedPartition.single_class(relation.n_rows)
    groups: dict = {}
    columns = [relation.column(a) for a in attributes]
    for row in range(relation.n_rows):
        key = tuple(int(col[row]) for col in columns)
        groups.setdefault(key, []).append(row)
    classes = [rows for rows in groups.values() if len(rows) >= 2]
    return StrippedPartition(classes, relation.n_rows)
