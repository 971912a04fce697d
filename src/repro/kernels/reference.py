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
    """Boolean mask of swap positions over class-then-(A,B)-sorted data.

    Inputs are parallel arrays already ordered by
    ``(class, A, B)``.  A position is a swap when its B rank lies below
    the maximum B of *strictly smaller* A groups within the same class.
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


def sorted_swap_views(col_a: np.ndarray, col_b: np.ndarray,
                      rows: np.ndarray, class_ids: np.ndarray):
    """(class_ids, A, B) of the grouped rows, sorted by ``(class, A)``.

    :func:`swap_mask` needs equal ``(class, A)`` groups contiguous and
    classes in ascending-A group order, but is insensitive to the order
    of B *within* a group — so one composite-key ``argsort``
    (``class_id * span + A``) replaces a 3-key ``lexsort``, which
    profiled ~5x slower on discovery workloads.
    """
    values_a = col_a[rows]
    low = int(values_a.min())
    span = int(values_a.max()) - low + 1
    order = np.argsort(class_ids * span + (values_a - low))
    return class_ids[order], values_a[order], col_b[rows][order]


class ReferenceBackend:
    """Array-level kernel contract, NumPy implementation.

    Output contracts (the parity suite's currency):

    * :meth:`partition_product` — ``(rows, offsets)`` of the refined
      partition, classes ordered by ``(y-class, left-class)``
      ascending, rows within each class in their original ``rows_y``
      order (the stable composite-key-argsort layout).
    * :meth:`swap_flags` — one bool per context class: does the class
      contain a swap pair w.r.t. ``A ~ B``?  (Per-class flags rather
      than a positional mask: the two backends sort within classes
      differently, but the per-class verdicts are order-free.)
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
                   class_ids: np.ndarray) -> np.ndarray:
        n_classes = len(offsets) - 1
        if len(rows) == 0:
            return np.zeros(n_classes, dtype=bool)
        sorted_ids, values_a, values_b = sorted_swap_views(
            col_a, col_b, rows, class_ids)
        mask = swap_mask(sorted_ids, values_a, values_b)
        flags = np.zeros(n_classes, dtype=bool)
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
