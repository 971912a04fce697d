"""The pure-NumPy reference kernel backend.

These are the PR 1 vectorized kernels, extracted verbatim from
:mod:`repro.partitions.partition` and :mod:`repro.core.validation`
into backend form: array-in/array-out functions with no partition or
relation objects in their signatures, so the compiled backend
(:mod:`repro.kernels.compiled`) can implement the same contract and be
checked for byte identity against this one (tests/kernels).

This backend is always available and is the semantic definition of
every kernel; the output contracts documented here are what the
parity suite enforces.

The swap kernel takes τ_A (Section 4.6), the relation's rows sorted
once by ``A`` (:meth:`repro.relation.encoding.EncodedRelation.order`),
and walks it instead of sorting each context: both backends answer a
swap check in one pass over the relation's rows.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Shared frozen empties (see partition.py for the rationale).
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.setflags(write=False)
_ZERO_OFFSET = np.zeros(1, dtype=np.int64)
_ZERO_OFFSET.setflags(write=False)


def strip_sorted_runs(sorted_rows: np.ndarray, sorted_keys: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Flat (rows, offsets) of the runs of equal ``sorted_keys`` that
    are at least 2 long.

    ``sorted_rows``/``sorted_keys`` are parallel arrays already ordered
    by key.  Boundary detection is one ``np.diff``; singleton runs are
    dropped by filtering run lengths, and survivors are gathered with a
    single boolean mask so the result stays contiguous per class.
    """
    n = len(sorted_keys)
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1])
    boundaries = np.empty(len(change) + 2, dtype=np.int64)
    boundaries[0] = 0
    boundaries[-1] = n
    boundaries[1:-1] = change + 1
    lengths = boundaries[1:] - boundaries[:-1]
    big = lengths >= 2
    if not big.any():
        return _EMPTY_ROWS, _ZERO_OFFSET
    sizes = lengths[big]
    # runs tile the whole array, so per-run flags expand to a per-
    # position keep mask in one repeat
    rows = sorted_rows[np.repeat(big, lengths)]
    offsets = np.concatenate((_ZERO_OFFSET, np.cumsum(sizes)))
    return rows, offsets


def swap_mask(class_ids: np.ndarray, values_a: np.ndarray,
              values_b: np.ndarray) -> np.ndarray:
    """Boolean mask of swap positions over class-then-A-sorted data.

    Inputs are parallel arrays with each class contiguous and, within
    a class, A ascending (any order within equal A).  A position is a
    swap when its B rank lies below the maximum B of *strictly
    smaller* A groups within the same class.
    The per-class running max of B is one global
    ``np.maximum.accumulate`` over B values shifted by
    ``class_id * span`` (classes occupy disjoint value bands, so the
    accumulate never leaks across a class boundary); the "max over
    earlier A groups" is that running max sampled at each A-group's
    start and broadcast group-wise.
    """
    n = len(class_ids)
    new_class = np.empty(n, dtype=bool)
    new_class[0] = True
    np.not_equal(class_ids[1:], class_ids[:-1], out=new_class[1:])
    new_group = new_class.copy()
    new_group[1:] |= values_a[1:] != values_a[:-1]

    shifted_b = values_b - values_b.min()      # nonnegative, so -1 works
    span = int(shifted_b.max()) + 1            # as the "no max yet" mark
    banded = shifted_b + class_ids * span
    running_max = np.maximum.accumulate(banded) - class_ids * span

    before = np.empty(n, dtype=np.int64)
    before[0] = -1
    before[1:] = running_max[:-1]
    before[new_class] = -1
    group_of = np.cumsum(new_group) - 1
    max_b_of_earlier_groups = before[new_group][group_of]
    return shifted_b < max_b_of_earlier_groups


def swap_input_length(col_a: np.ndarray, col_b: np.ndarray,
                      order_a: np.ndarray) -> int:
    """The relation's row count, once ``col_a``, ``col_b`` and
    ``order_a`` agree on it; a mismatch raises ``ValueError`` before
    any kernel indexes the arrays."""
    n = len(order_a)
    if len(col_a) != n or len(col_b) != n:
        raise ValueError(
            f"swap_flags needs col_a, col_b and order_a of one length; "
            f"got {len(col_a)}, {len(col_b)} and {n}")
    return n


class ReferenceBackend:
    """Array-level kernel contract, NumPy implementation.

    Output contracts (the parity suite's currency):

    * :meth:`partition_product` — ``(rows, offsets)`` of the refined
      partition, classes ordered by ``(y-class, left-class)``
      ascending, rows within each class in their original ``rows_y``
      order (the stable composite-key-argsort layout).
    * :meth:`swap_flags` — one bool per context class: does the class
      contain a swap pair w.r.t. ``A ~ B``?  ``order_a`` is τ_A, every
      row sorted by ``col_a`` in any order within ties.  (Per-class
      flags rather than a positional mask: the verdicts do not depend
      on the order within ties, positions would.)
    * :meth:`split_mismatch` — bool per grouped row (parallel to
      ``rows``): does the row's value differ from its class's first?
    * :meth:`densify` — ``np.unique(values, return_inverse=True)``:
      sorted distinct values plus each value's index among them.
    """

    name = "reference"

    @staticmethod
    def partition_product(probe: np.ndarray, rows_y: np.ndarray,
                          offsets_y: np.ndarray, class_ids_y: np.ndarray,
                          n_left: int) -> Tuple[np.ndarray, np.ndarray]:
        left = probe[rows_y]
        keep = left >= 0
        if not keep.all():
            rows_y = rows_y[keep]
            left = left[keep]
            class_ids_y = class_ids_y[keep]
        if len(rows_y) == 0:
            return _EMPTY_ROWS, _ZERO_OFFSET
        key = class_ids_y * n_left + left
        order = np.argsort(key, kind="stable")
        return strip_sorted_runs(rows_y[order], key[order])

    @staticmethod
    def swap_flags(col_a: np.ndarray, col_b: np.ndarray,
                   rows: np.ndarray, offsets: np.ndarray,
                   class_ids: np.ndarray,
                   order_a: np.ndarray) -> np.ndarray:
        n = swap_input_length(col_a, col_b, order_a)
        flags = np.zeros(len(offsets) - 1, dtype=bool)
        if len(rows) == 0:
            return flags
        # the τ_A walk, vectorized: each grouped row's position in τ_A,
        # and one sort by (class, position) puts every class's rows in
        # walk order — ascending A (keys are unique, so any sort kind)
        position = np.empty(n, dtype=np.int64)
        position[order_a] = np.arange(n, dtype=np.int64)
        walk = np.argsort(class_ids * n + position[rows])
        sorted_ids = class_ids[walk]
        sorted_rows = rows[walk]
        mask = swap_mask(sorted_ids, col_a[sorted_rows],
                         col_b[sorted_rows])
        flags[sorted_ids[mask]] = True
        return flags

    @staticmethod
    def split_mismatch(column: np.ndarray, rows: np.ndarray,
                       offsets: np.ndarray,
                       class_sizes: np.ndarray) -> np.ndarray:
        values = column[rows]
        firsts = np.repeat(values[offsets[:-1]], class_sizes)
        return values != firsts

    @staticmethod
    def densify(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        survivors, dense = np.unique(values, return_inverse=True)
        return survivors, dense.astype(np.int64, copy=False)
