"""Sorted partitions (τ) and the bucketization of Table 2.

A sorted partition τ_A is the list of equivalence classes of attribute
``A`` ordered by A's values (paper Section 4.6).  Restricting τ_A to one
equivalence class of a context partition — ``τ_A(E(t_X))`` in the paper,
illustrated in Table 2 — produces the sorted buckets the swap check
scans.

The rank column itself doubles as the inverse map (row -> bucket), so
:meth:`SortedPartition.rank_of` is memoized on the instance:
:meth:`restrict` used to rebuild it with a full O(n) pass per call,
which dominated repeated restrictions of the same τ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.relation.encoding import EncodedRelation


class SortedPartition:
    """Equivalence classes of one attribute in ascending value order.

    Unlike :class:`~repro.partitions.partition.StrippedPartition`,
    singleton classes are kept: ordering information matters here.
    With dense rank encoding, bucket ``i`` holds exactly the rows whose
    rank equals ``i``.
    """

    __slots__ = ("buckets", "n_rows", "_ranks")

    def __init__(self, buckets: Sequence[Sequence[int]], n_rows: int):
        self.buckets: List[List[int]] = [list(b) for b in buckets]
        self.n_rows = n_rows
        self._ranks: Optional[np.ndarray] = None

    @classmethod
    def from_ranks(cls, ranks: np.ndarray) -> "SortedPartition":
        """Build τ from a dense-rank column.

        One stable rank order (:func:`repro.kernels.rank_order`, the
        sort behind :meth:`EncodedRelation.order`) orders rows by
        rank; slicing at the rank boundaries yields the buckets with
        rows in original-position order, exactly as the per-row append
        loop produced them.
        """
        n = len(ranks)
        if n == 0:
            partition = cls([], 0)
            partition._ranks = np.array(ranks, dtype=np.int64)
            partition._ranks.setflags(write=False)
            return partition
        n_buckets = int(ranks.max()) + 1
        order = kernels.rank_order(ranks)
        sorted_ranks = ranks[order]
        starts = np.searchsorted(sorted_ranks, np.arange(n_buckets))
        stops = np.append(starts[1:], n)
        flat = order.tolist()
        partition = cls.__new__(cls)
        partition.buckets = [flat[start:stop]
                             for start, stop in zip(starts, stops)]
        partition.n_rows = n
        # a frozen private copy, NOT an alias of the caller's column:
        # rank_of() hands this array out, and callers must not be able
        # to corrupt the relation's encoded column or this memo
        partition._ranks = np.array(ranks, dtype=np.int64)
        partition._ranks.setflags(write=False)
        return partition

    @classmethod
    def for_attribute(cls, relation: EncodedRelation,
                      attribute: int) -> "SortedPartition":
        return cls.from_ranks(relation.column(attribute))

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    def rank_of(self) -> np.ndarray:
        """Inverse map: row -> bucket index (== dense rank).

        Memoized on the instance — when τ was built
        :meth:`from_ranks`, a copy of the input column *is* the inverse
        map; otherwise it is scattered once from the buckets and
        cached.  The returned array is read-only: the memo is shared
        across calls, so in-place writes (harmless under the old
        fresh-array-per-call contract) would corrupt every later
        :meth:`restrict`.
        """
        if self._ranks is None:
            ranks = np.empty(self.n_rows, dtype=np.int64)
            for bucket_index, rows in enumerate(self.buckets):
                ranks[rows] = bucket_index
            ranks.setflags(write=False)
            self._ranks = ranks
        return self._ranks

    def restrict(self, eq_class: Sequence[int]) -> List[List[int]]:
        """``τ_A(E(t_X))``: the sorted buckets of one context class.

        Reproduces the hashing step of Table 2: each row of the class is
        hashed into the bucket of its A-rank; buckets come back in
        ascending A order with empty buckets dropped.  Uses the
        memoized inverse map plus one small stable sort over the class,
        so the cost is O(|class| log |class|), not O(n) per call.
        """
        members = np.asarray(eq_class, dtype=np.int64)
        if members.size == 0:
            return []
        ranks = self.rank_of()[members]
        order = np.argsort(ranks, kind="stable")
        sorted_members = members[order].tolist()
        sorted_ranks = ranks[order]
        boundaries = np.flatnonzero(np.diff(sorted_ranks)) + 1
        starts = [0, *boundaries.tolist()]
        stops = [*boundaries.tolist(), len(sorted_members)]
        return [sorted_members[start:stop]
                for start, stop in zip(starts, stops)]


def swap_free_buckets(buckets_a: List[List[int]],
                      ranks_b: np.ndarray) -> bool:
    """Check that no swap exists between A and B over sorted A-buckets.

    ``buckets_a`` are the rows of one context class grouped by A value in
    ascending order (output of :meth:`SortedPartition.restrict`).  A swap
    (Definition 5) is a pair ``s, t`` with ``s ≺_A t`` but ``t ≺_B s``;
    bucket-wise this means some B-rank in an earlier bucket exceeds some
    B-rank in a later bucket.  One left-to-right scan suffices.
    """
    highest_b_so_far = -1
    for bucket in buckets_a:
        bucket_ranks = ranks_b[bucket]
        if int(bucket_ranks.min()) < highest_b_so_far:
            return False
        highest_b_so_far = max(highest_b_so_far, int(bucket_ranks.max()))
    return True
