"""Delta kernels: CSR batch merges and stable-id group trackers agree
with from-scratch grouping on arbitrary append streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental.delta import DeltaPartition, GroupTracker
from repro.partitions.partition import (
    StrippedPartition,
    merge_batch,
    partition_from_columns,
)
from repro.relation.schema import iter_bits
from repro.relation.table import Relation


def make_relation(columns):
    names = [f"c{i}" for i in range(len(columns))]
    return Relation.from_columns(dict(zip(names, columns)))


# ----------------------------------------------------------------------
# merge_batch (the CSR splice kernel)
# ----------------------------------------------------------------------
class TestMergeBatch:
    def test_join_and_new_class(self):
        old = StrippedPartition([[0, 1], [2, 3, 4]], 6)
        merged = merge_batch(
            old, 9, np.array([6]), np.array([0]), [[7, 8]])
        assert merged.classes == [[0, 1, 6], [2, 3, 4], [7, 8]]
        assert merged.n_rows == 9

    def test_promoted_singleton_is_a_new_class(self):
        old = StrippedPartition([[0, 1]], 3)       # row 2 is a singleton
        merged = merge_batch(
            old, 5, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            [[2, 3, 4]])
        assert merged.classes == [[0, 1], [2, 3, 4]]

    def test_empty_effect_only_grows_n_rows(self):
        old = StrippedPartition([[0, 1]], 2)
        merged = merge_batch(
            old, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            [])
        assert merged.classes == old.classes
        assert merged.n_rows == 4

    def test_old_class_ids_preserved(self):
        old = StrippedPartition([[0, 1], [2, 3], [4, 5]], 6)
        merged = merge_batch(
            old, 8, np.array([6, 7]), np.array([2, 0]), [])
        assert merged.classes[0] == [0, 1, 7]
        assert merged.classes[1] == [2, 3]
        assert merged.classes[2] == [4, 5, 6]

    def test_rejects_undersized_new_class(self):
        old = StrippedPartition([], 1)
        with pytest.raises(ValueError):
            merge_batch(old, 2, np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64), [[1]])

    def test_rejects_out_of_range_class(self):
        old = StrippedPartition([[0, 1]], 2)
        with pytest.raises(ValueError):
            merge_batch(old, 3, np.array([2]), np.array([5]), [])


# ----------------------------------------------------------------------
# GroupTracker + DeltaPartition vs the from-scratch oracle
# ----------------------------------------------------------------------
def build_family(relation):
    """Trackers and delta partitions for every attribute-set mask."""
    encoded = relation.encode()
    n_cols = relation.arity
    col_gids = [encoded.keys[a].gid_sorted[encoded.ranks[a]]
                if len(encoded.keys[a].gid_sorted)
                else np.empty(0, dtype=np.int64)
                for a in range(n_cols)]
    trackers = {0: GroupTracker.from_gids(
        np.zeros(relation.n_rows, dtype=np.int64))}
    masks = sorted(range(1, 2 ** n_cols),
                   key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        low = mask & -mask
        attribute = low.bit_length() - 1
        if mask == low:
            trackers[mask] = GroupTracker.from_gids(col_gids[attribute])
        else:
            trackers[mask] = GroupTracker.combine(
                trackers[mask ^ low], col_gids[attribute])
    deltas = {mask: DeltaPartition(t) for mask, t in trackers.items()}
    return col_gids, trackers, deltas, [0] + masks


def apply_stream(relation, batches):
    """Feed batches through a full tracker family, checking every mask
    against partition_from_columns after every batch."""
    col_gids, trackers, deltas, masks = build_family(relation)
    current = relation
    for batch in batches:
        appended = current.append_rows(batch)
        encoded = appended.encode()
        n_old = current.n_rows
        for a in range(appended.arity):
            col_gids[a] = np.concatenate((
                col_gids[a],
                encoded.keys[a].gid_sorted[encoded.ranks[a][n_old:]]))
        for mask in masks:
            tracker = trackers[mask]
            low = mask & -mask
            attribute = low.bit_length() - 1
            if mask == 0:
                attr_gids = np.zeros(len(batch), dtype=np.int64)
                parent = None
            elif mask == low:
                attr_gids = col_gids[attribute][n_old:]
                parent = None
            else:
                attr_gids = col_gids[attribute][n_old:]
                parent = trackers[mask ^ low]
            effect = tracker.apply_batch(attr_gids, parent)
            deltas[mask].apply(effect)
        current = appended
        for mask in masks:
            oracle = partition_from_columns(encoded, list(iter_bits(mask)))
            tracker = trackers[mask]
            assert tracker.n_classes == oracle.n_classes
            assert tracker.n_grouped_rows == oracle.n_grouped_rows
            assert tracker.error == oracle.error
            assert deltas[mask].partition == oracle
    return trackers, deltas


small_cells = st.integers(min_value=0, max_value=3)


@st.composite
def relation_and_batches(draw):
    n_cols = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*([small_cells] * n_cols))
    rows = draw(st.lists(row, min_size=0, max_size=10))
    batches = draw(st.lists(st.lists(row, min_size=0, max_size=5),
                            min_size=1, max_size=4))
    return make_columns(n_cols, rows), batches


def make_columns(n_cols, rows):
    names = [f"c{i}" for i in range(n_cols)]
    return Relation.from_rows(names, rows)


class TestTrackedFamily:
    @settings(max_examples=60, deadline=None)
    @given(relation_and_batches())
    def test_matches_from_scratch_partitions(self, case):
        relation, batches = case
        apply_stream(relation, batches)

    def test_stable_gids_across_rank_shifts(self):
        # appending a value that sorts *between* existing ones shifts
        # ranks but must not move group ids
        relation = make_relation([[10, 30, 30]])
        col_gids, trackers, deltas, masks = build_family(relation)
        tracker = trackers[0b1]
        gid_of_30 = int(tracker.group_of[1])
        appended = relation.append_rows([(20,)])
        encoded = appended.encode()
        col_gids[0] = np.concatenate((
            col_gids[0], encoded.keys[0].gid_sorted[encoded.ranks[0][3:]]))
        tracker.apply_batch(col_gids[0][3:], None)
        assert int(tracker.group_of[1]) == gid_of_30
        assert int(tracker.group_of[2]) == gid_of_30
