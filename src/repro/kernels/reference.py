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

The product kernel takes a whole lattice level (Section 4.6): every
``(left, right)`` parent pair of the level in one call, one row ->
class probe per left parent.  The swap kernel takes τ_A, the
relation's rows sorted once by ``A``
(:meth:`repro.relation.encoding.EncodedRelation.order`, the stable
:meth:`ReferenceBackend.rank_order`), and walks it instead of sorting
each context: both backends answer a swap check in one pass over the
relation's rows per (A, B) pair, and report where that pass stopped.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

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


def check_swap_pairs(columns: Sequence[np.ndarray],
                     orders: Mapping[int, np.ndarray],
                     pair_a: Sequence[int], pair_b: Sequence[int],
                     negate: Sequence[bool], limit: int) -> int:
    """The relation's row count, once the (A, B) pairs of a
    :meth:`ReferenceBackend.swap_verdicts` call are well formed: pair
    arrays of one length, indices in ``[0, arity)``, a τ_A for every A,
    every column and τ_A of one length, and a ``limit`` of at least 1.
    ``ValueError`` otherwise, before any kernel indexes the arrays."""
    if limit < 1:
        raise ValueError(
            f"swap_verdicts needs a limit of at least 1; got {limit}")
    if not len(pair_a) == len(pair_b) == len(negate):
        raise ValueError(
            f"swap_verdicts needs pair_a, pair_b and negate of one "
            f"length; got {len(pair_a)}, {len(pair_b)} and {len(negate)}")
    arity = len(columns)
    n = len(columns[0]) if arity else 0
    if any(len(column) != n for column in columns):
        raise ValueError("swap_verdicts needs columns of one length")
    if len(pair_a) and (min(min(pair_a), min(pair_b)) < 0
                        or max(max(pair_a), max(pair_b)) >= arity):
        raise ValueError(
            f"swap_verdicts pair indices must lie in [0, {arity})")
    for a in set(pair_a):
        if a not in orders or len(orders[a]) != n:
            raise ValueError(
                f"swap_verdicts needs a τ_A of length {n} for "
                f"attribute {a}")
    return n


#: One parent of a :meth:`ReferenceBackend.partition_products` call:
#: its flat ``(rows, offsets)``.
Parent = Tuple[np.ndarray, np.ndarray]

_PRODUCT_CONTRACT = {
    -2: "product kernel parent rows must lie in [0, n)",
    -3: ("product kernel parent offsets must start at 0, never "
         "decrease and end at len(rows)"),
    -4: "product kernel task indices must lie in [0, n_parents)",
    -5: ("product kernel parents must not list a row twice (a product "
         "outgrew min(||Π_X||, ||Π_Y||))"),
}


def product_contract_error(code: int) -> Exception:
    """The exception for a product kernel's negative return code: a
    ``ValueError`` naming the broken input contract, or a
    ``MemoryError`` for a failed scratch allocation (-1)."""
    if code in _PRODUCT_CONTRACT:
        return ValueError(_PRODUCT_CONTRACT[code])
    return MemoryError("product kernel scratch allocation failed")


def product_bounds(parents: Sequence[Parent], tasks: Sequence
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(tasks, bounds)``: the ``(left, right)`` parent indices as an
    ``(n_tasks, 2)`` int64 array, and each task's row bound
    ``min(||Π_left||, ||Π_right||)``.  A task index outside
    ``[0, n_parents)`` raises ``ValueError`` before any parent is
    read."""
    tasks = np.asarray(tasks, dtype=np.int64).reshape(-1, 2)
    if tasks.size and (tasks.min() < 0 or tasks.max() >= len(parents)):
        raise product_contract_error(-4)
    lengths = np.fromiter((len(rows) for rows, _ in parents),
                          dtype=np.int64, count=len(parents))
    return tasks, np.minimum(lengths[tasks[:, 0]], lengths[tasks[:, 1]])


def _layout_code(rows: np.ndarray, offsets: np.ndarray, n: int) -> int:
    """0 for a flat layout over ``n`` rows, else the code the C kernels
    return for it: -3 offsets that do not start at 0, decrease or miss
    ``len(rows)``, -2 a row outside ``[0, n)``."""
    if (len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(rows)
            or (offsets[1:] < offsets[:-1]).any()):
        return -3
    if len(rows) and (rows.min() < 0 or rows.max() >= n):
        return -2
    return 0


def _class_ids(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                     np.diff(offsets))


_SWAP_CONTRACT = {
    -2: "swap kernel context rows must lie in [0, n)",
    -3: ("swap kernel context offsets must start at 0, never decrease "
         "and end at len(rows)"),
    -4: "swap kernel τ_A must hold rows in [0, n)",
}


def swap_contract_error(code: int) -> Exception:
    """The exception for a swap kernel's negative return code: a
    ``ValueError`` naming the broken input contract, or a
    ``MemoryError`` for a failed scratch allocation (-1)."""
    if code in _SWAP_CONTRACT:
        return ValueError(_SWAP_CONTRACT[code])
    return MemoryError("swap kernel scratch allocation failed")


def _check_swap_context(rows: np.ndarray, offsets: np.ndarray,
                        n: int) -> None:
    code = _layout_code(rows, offsets, n)
    if code:
        raise swap_contract_error(code)


def _tau_walk(position: np.ndarray, order_a: np.ndarray,
              class_ids: np.ndarray, rows: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The τ_A walk, vectorized: each grouped row's position in τ_A
    (written into the ``position`` probe table), then one sort by
    (class, position) puts every class's rows in walk order —
    ascending A (keys are unique, so any sort kind).  Returns the
    class ids and rows in that order."""
    n = len(position)
    if n and (order_a.min() < 0 or order_a.max() >= n):
        raise swap_contract_error(-4)
    position[order_a] = np.arange(n, dtype=np.int64)
    walk = np.argsort(class_ids * n + position[rows])
    return class_ids[walk], rows[walk]


def _first_stops(hits: np.ndarray, sorted_ids: np.ndarray,
                 sorted_rows: np.ndarray, position: np.ndarray,
                 limit: int) -> np.ndarray:
    """Where one pair's first ``limit`` stops lie, in τ_A order, as
    positions in the class-then-walk order of :func:`_tau_walk`, given
    the pair's swap-mask positions ``hits`` (ascending) and the τ_A
    ``position`` table: each class stops at its first hit, where the C
    walk flags it."""
    if limit == 1:
        # a verdict's one stop is the earliest hit in τ_A, whatever
        # its class: no per-class pass (it cost a quarter of a batched
        # verdict call on cli-wide's contexts)
        return hits[[position[sorted_rows[hits]].argmin()]]
    first = hits[np.flatnonzero(np.diff(sorted_ids[hits], prepend=-1))]
    return first[np.argsort(position[sorted_rows[first]])[:limit]]


class ReferenceBackend:
    """Array-level kernel contract, NumPy implementation.

    Output contracts (the parity suite's currency):

    * :meth:`partition_products` — ``Π_left · Π_right`` for every
      ``(left, right)`` index pair of ``tasks`` over ``parents`` (flat
      ``(rows, offsets)`` pairs of one ``n_rows``-row relation), as
      ``(rows, offsets, spans)``.  Each product is packed into
      ``rows``/``offsets`` in task order, its offsets starting at 0;
      ``spans[t]`` is task ``t``'s ``(rows start, rows length, offsets
      start, class count)``.  One row -> class probe serves each run
      of consecutive tasks sharing a left parent.  A product's
      classes are ordered by ``(right class, left class)`` ascending,
      rows within each class in their right-parent order (the stable
      composite-key-argsort layout), and hold at most
      ``min(||Π_left||, ||Π_right||)`` rows.
    * :meth:`rank_order` — ``np.argsort(ranks, kind="stable")``: every
      row sorted by rank, ties in row order (a valid τ_A).
    * :meth:`swap_verdicts` — ``(swapped, stops)`` over one context.
      ``swapped[p]``: does any class contain a swap w.r.t. ``A ~ B``
      for the pair ``(pair_a[p], pair_b[p])``, with B's order reversed
      where ``negate[p]`` (the ``swap_desc`` scans)?  ``columns`` are
      the relation's rank columns, ``orders`` maps every A to its τ_A
      (every row sorted by A, in any order within ties).
      ``stops[p]`` (shape ``(n_pairs, min(limit, n_classes), 2)``)
      holds the pair's first ``limit`` ``(class, row)`` stops in τ_A
      order, ``-1`` past its last: a class stops at its first row in
      τ_A whose B lies below the largest B of the class's smaller A
      values.  Verdicts do not depend on the order within ties of
      τ_A; stop rows do, and both backends read them off the same
      τ_A.
    * :meth:`split_mismatch` — bool per grouped row (parallel to
      ``rows``): does the row's value differ from its class's first?
    * :meth:`densify` — ``np.unique(values, return_inverse=True)``:
      sorted distinct values plus each value's index among them.

    The product and swap kernels raise ``ValueError`` for inputs
    outside their contract (rows outside ``[0, n)``, offsets that do
    not start at 0, decrease or miss ``len(rows)``, task or pair
    indices out of range, unequal lengths, a swap ``limit`` below 1)
    before indexing anything.
    """

    name = "reference"

    @staticmethod
    def partition_products(parents: Sequence[Parent], tasks: Sequence,
                           n_rows: int
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        tasks, bounds = product_bounds(parents, tasks)
        for rows, offsets in parents:
            code = _layout_code(rows, offsets, n_rows)
            if code:
                raise product_contract_error(code)
        spans = np.empty((len(tasks), 4), dtype=np.int64)
        out_rows: List[np.ndarray] = []
        out_offsets: List[np.ndarray] = []
        rows_at = offsets_at = 0
        probe = np.full(n_rows, -1, dtype=np.int64)
        for t, (left, right) in enumerate(tasks.tolist()):
            rows_x, offsets_x = parents[left]
            if t == 0 or tasks[t - 1, 0] != left:
                probe[rows_x] = _class_ids(offsets_x)
            rows_y, offsets_y = parents[right]
            # the composite-key refinement of Π_right by Π_left
            key = probe[rows_y]
            keep = key >= 0
            key += _class_ids(offsets_y) * (len(offsets_x) - 1)
            rows, offsets = _EMPTY_ROWS, _ZERO_OFFSET
            if keep.any():
                order = np.argsort(key[keep], kind="stable")
                rows, offsets = strip_sorted_runs(rows_y[keep][order],
                                                  key[keep][order])
            if len(rows) > bounds[t]:
                raise product_contract_error(-5)
            spans[t] = (rows_at, len(rows), offsets_at, len(offsets) - 1)
            out_rows.append(rows)
            out_offsets.append(offsets)
            rows_at += len(rows)
            offsets_at += len(offsets)
            if t + 1 == len(tasks) or tasks[t + 1, 0] != left:
                probe[rows_x] = -1
        if not out_rows:
            return _EMPTY_ROWS, _EMPTY_ROWS, spans
        return np.concatenate(out_rows), np.concatenate(out_offsets), spans

    @staticmethod
    def rank_order(ranks: np.ndarray) -> np.ndarray:
        return np.argsort(ranks, kind="stable").astype(np.int64,
                                                       copy=False)

    @staticmethod
    def swap_verdicts(columns: Sequence[np.ndarray],
                      orders: Mapping[int, np.ndarray], rows: np.ndarray,
                      offsets: np.ndarray, pair_a: Sequence[int],
                      pair_b: Sequence[int], negate: Sequence[bool],
                      limit: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        n = check_swap_pairs(columns, orders, pair_a, pair_b, negate,
                             limit)
        _check_swap_context(rows, offsets, n)
        swapped = np.zeros(len(pair_a), dtype=bool)
        limit = min(limit, len(offsets) - 1)
        stops = np.full((len(pair_a), limit, 2), -1, dtype=np.int64)
        if len(rows) == 0:
            return swapped, stops
        class_ids = _class_ids(offsets)
        position = np.empty(n, dtype=np.int64)
        pairs_of = {}
        for p, a in enumerate(pair_a):
            pairs_of.setdefault(a, []).append(p)
        # one walk order per distinct A serves each of its B's
        for a, members in pairs_of.items():
            sorted_ids, sorted_rows = _tau_walk(position, orders[a],
                                                class_ids, rows)
            values_a = columns[a][sorted_rows]
            for p in members:
                values_b = columns[pair_b[p]][sorted_rows]
                if negate[p]:
                    values_b = ~values_b
                hits = np.flatnonzero(swap_mask(sorted_ids, values_a,
                                                values_b))
                if len(hits):
                    swapped[p] = True
                    pick = _first_stops(hits, sorted_ids, sorted_rows,
                                        position, limit)
                    stops[p, :len(pick), 0] = sorted_ids[pick]
                    stops[p, :len(pick), 1] = sorted_rows[pick]
        return swapped, stops

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
