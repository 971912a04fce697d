"""DeltaBatch semantics: deterministic, order-sensitive application.

The model's contract is that the live engine and a boot-time replay
resolve every delete to the *same* row occurrence — these tests pin
the occurrence rules (first live base row; LIFO pending cancellation)
and the equivalence of :func:`replay_relation` with sequential
``apply_to``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deltalog import DeltaBatch, replay_relation
from repro.errors import DataError
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from tests.deltalog import raw_resolver


def rel(rows):
    return Relation.from_rows(["a", "b"], rows)


class TestConstruction:
    def test_weights_must_be_unit(self):
        with pytest.raises(DataError):
            DeltaBatch([(2, (1, 2))])
        with pytest.raises(DataError):
            DeltaBatch([(0, (1, 2))])

    def test_rows_must_be_sequences_of_scalars(self):
        with pytest.raises(DataError):
            DeltaBatch([(1, "ab")])
        with pytest.raises(DataError):
            DeltaBatch([(1, ([1], 2))])

    def test_arity_checked_when_given(self):
        with pytest.raises(DataError):
            DeltaBatch([(1, (1, 2, 3))], arity=2)

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            DeltaBatch.inserts([(1, float("nan"))])
        with pytest.raises(DataError, match="NaN"):
            DeltaBatch.from_request({"deletes": [[float("nan"), 2]]})

    def test_infinities_accepted(self):
        batch = DeltaBatch.inserts([(float("inf"), float("-inf"))])
        assert batch.ops == [(1, (float("inf"), float("-inf")))]

    def test_updates_decompose(self):
        batch = DeltaBatch.updates([((1, 2), (1, 3))])
        assert batch.ops == [(-1, (1, 2)), (1, (1, 3))]
        assert batch.net_row_delta == 0

    def test_from_request_folds_in_order(self):
        batch = DeltaBatch.from_request({
            "ops": [[1, [5, 5]]],
            "inserts": [[3, 3]],
            "deletes": [[1, 1]],
            "updates": [[[2, 2], [4, 4]]],
        })
        assert batch.ops == [
            (1, (5, 5)),                 # explicit ops first
            (-1, (1, 1)),                # then deletes
            (-1, (2, 2)), (1, (4, 4)),   # then updates
            (1, (3, 3)),                 # then inserts
        ]

    def test_from_request_needs_some_ops(self):
        with pytest.raises(DataError):
            DeltaBatch.from_request({})

    def test_dict_round_trip(self):
        batch = DeltaBatch([(1, (1, 2)), (-1, (3, 4))])
        assert DeltaBatch.from_dict(batch.to_dict()).ops == batch.ops


class TestSplit:
    def test_delete_consumes_first_live_occurrence(self):
        relation = rel([(1, 1), (2, 2), (1, 1)])
        deletes, inserts = DeltaBatch.deletes([(1, 1)]).split(relation)
        assert deletes == [0]
        assert inserts == []

    def test_second_delete_takes_second_occurrence(self):
        relation = rel([(1, 1), (2, 2), (1, 1)])
        deletes, _ = DeltaBatch.deletes(
            [(1, 1), (1, 1)]).split(relation)
        assert deletes == [0, 2]

    def test_delete_of_absent_row_raises(self):
        with pytest.raises(DataError):
            DeltaBatch.deletes([(9, 9)]).split(rel([(1, 1)]))

    def test_pending_insert_cancels_lifo(self):
        # +r +r -r: the MOST RECENT pending +r cancels
        batch = DeltaBatch([(1, (7, 7)), (1, (7, 7)), (-1, (7, 7))])
        deletes, inserts = batch.split(rel([(1, 1)]))
        assert deletes == []
        assert inserts == [(7, 7)]

    def test_base_occurrence_outranks_pending(self):
        # -r +r with r in the base = move-to-end, never a cancel
        batch = DeltaBatch([(-1, (1, 1)), (1, (1, 1))])
        deletes, inserts = batch.split(rel([(1, 1), (2, 2)]))
        assert deletes == [0]
        assert inserts == [(1, 1)]

    def test_insert_then_delete_is_noop(self):
        batch = DeltaBatch([(1, (9, 9)), (-1, (9, 9))])
        deletes, inserts = batch.split(rel([(1, 1)]))
        assert deletes == [] and inserts == []

    def test_arity_mismatch_raises(self):
        with pytest.raises(DataError):
            DeltaBatch([(1, (1, 2, 3))]).split(rel([(1, 1)]))


class TestValueIdentity:
    """Rows match as the encoder ranks them: ``1`` and ``1.0`` share a
    rank, a boolean ranks apart from every number (``True == 1`` in
    Python notwithstanding)."""

    def test_number_delete_leaves_the_bool_row(self):
        for relation in (rel([(True, 1), (2, 2), (3, 3)]),
                         Relation.from_columns({
                             "a": np.array([True, False]),
                             "b": np.array([1, 2])})):
            with pytest.raises(DataError, match="no remaining occurrence"):
                DeltaBatch.deletes([(1, 1)]).fold(relation)

    def test_bool_delete_leaves_the_number_row(self):
        with pytest.raises(DataError, match="no remaining occurrence"):
            DeltaBatch.deletes([(True, 1)]).split(rel([(1, 1), (2, 2)]))

    def test_each_delete_takes_its_own_kind(self):
        relation = rel([(1, True), (True, 1), (1.0, 1), (np.True_, 1)])
        deletes, _ = DeltaBatch.deletes(
            [(1, 1.0), (True, 1), (True, 1)]).split(relation)
        assert deletes == [1, 2, 3]

    def test_pending_cancellation_takes_its_own_kind(self):
        batch = DeltaBatch([(1, (1, 5)), (1, (True, 5)), (-1, (1, 5))])
        deletes, inserts = batch.split(rel([(2, 2)]))
        assert deletes == []
        assert [type(row[0]) for row in inserts] == [bool]
        with pytest.raises(DataError, match="no remaining occurrence"):
            DeltaBatch([(1, (True, 5)), (-1, (1, 5))]).split(rel([(2, 2)]))

    def test_replay_resolves_like_apply(self):
        relation = rel([(1, 1), (True, 1)])
        batches = [DeltaBatch.inserts([(True, 1)]),
                   DeltaBatch.deletes([(True, 1), (True, 1)])]
        sequential = relation
        for batch in batches:
            sequential = batch.apply_to(sequential)
        replayed = replay_relation(relation, batches)
        assert list(replayed.rows()) == list(sequential.rows())
        assert [type(row[0]) for row in replayed.rows()] == [int]


class TestFold:
    def test_fold_keeps_every_stage(self):
        relation = rel([(1, 1), (2, 2), (3, 3)])
        fold = DeltaBatch([(-1, (2, 2)), (1, (4, 4))]).fold(relation)
        assert fold.base is relation
        assert fold.deletes == [1] and fold.inserts == [(4, 4)]
        assert list(fold.relation.rows()) == [(1, 1), (3, 3), (4, 4)]
        assert list(relation.rows()) == [(1, 1), (2, 2), (3, 3)]

    def test_insert_only_fold_reuses_the_base(self):
        relation = rel([(1, 1)])
        fold = DeltaBatch.inserts([(2, 2)]).fold(relation)
        assert fold.deletes == []
        assert list(fold.relation.rows()) == [(1, 1), (2, 2)]
        # a batch that cancels out folds to the base itself
        cancelled = DeltaBatch([(1, (2, 2)), (-1, (2, 2))]).fold(relation)
        assert cancelled.relation is relation

    def test_folded_encodings_match_from_scratch(self):
        relation = rel([(3, 1), (1, 2), (2, 2), (1, 1)])
        relation.encode()
        fold = DeltaBatch([(-1, (1, 2)), (1, (0, 5)), (1, (9, 1))]
                          ).fold(relation)
        scratch = rel(list(fold.relation.rows()))
        assert fingerprint(fold.relation) == fingerprint(scratch)
        assert fold.relation.encode().ranks[0].tolist() == \
            scratch.encode().ranks[0].tolist()

    def test_fold_reads_no_raw_row(self, monkeypatch):
        """A mixed batch over an encoded relation is resolved and
        applied on the rank columns: with every raw-row accessor
        broken, the fold still equals the raw-value resolver's."""
        rng = np.random.default_rng(5)
        rows = [(int(a), ["x", "y", None][int(b)])
                for a, b in zip(rng.integers(0, 50, 1000),
                                rng.integers(0, 3, 1000))]
        relation = rel(rows)
        relation.encode()
        batch = DeltaBatch([(-1, rows[10]), (1, (7, "z")),
                            (-1, (float(rows[500][0]), rows[500][1])),
                            (1, (True, None)), (-1, (True, None)),
                            (-1, rows[10]), (1, (3.5, "x"))])
        expected = next(raw_resolver.resolve(rows, 2, [batch]))
        expected_rows = raw_resolver.replay(rows, 2, [batch])

        def broken(*args, **kwargs):
            raise AssertionError("the fold read a raw row")

        for name in ("rows", "row", "column_at"):
            monkeypatch.setattr(Relation, name, broken)
        fold = batch.fold(relation)
        monkeypatch.undo()
        assert (fold.deletes, fold.inserts) == expected
        assert raw_resolver.typed(fold.relation.rows()) == \
            raw_resolver.typed(expected_rows)
        assert_encoded_like_scratch(fold.relation)

    def test_colliding_row_keys_are_checked_exactly(self, monkeypatch):
        """A row key only nominates: with every row's key equal, each
        candidate is checked rank for rank and the fold still equals
        the raw-value resolver's."""
        from repro.deltalog import model

        rows = [(i % 4, "ab"[i % 2]) for i in range(40)]
        batch = DeltaBatch([(-1, (1, "b")), (-1, (2.0, "a")),
                            (1, (9, "c")), (-1, (1, "b"))])
        expected = next(raw_resolver.resolve(rows, 2, [batch]))
        monkeypatch.setattr(
            model, "_row_keys",
            lambda columns: np.zeros(len(columns[0]), dtype=np.uint64))
        assert batch.split(rel(rows)) == expected

    def test_failed_resolution_folds_nothing(self):
        relation = rel([(1, 1)])
        with pytest.raises(DataError):
            DeltaBatch([(1, (2, 2)), (-1, (9, 9))]).fold(relation)
        assert list(relation.rows()) == [(1, 1)]


class TestApply:
    def test_apply_is_pure(self):
        relation = rel([(1, 1), (2, 2)])
        out = DeltaBatch.deletes([(1, 1)]).apply_to(relation)
        assert list(relation.rows()) == [(1, 1), (2, 2)]
        assert list(out.rows()) == [(2, 2)]

    def test_move_to_end(self):
        relation = rel([(1, 1), (2, 2)])
        out = DeltaBatch(
            [(-1, (1, 1)), (1, (1, 1))]).apply_to(relation)
        assert list(out.rows()) == [(2, 2), (1, 1)]

    def test_apply_to_empty_relation(self):
        out = DeltaBatch.inserts([(1, 1)]).apply_to(rel([]))
        assert list(out.rows()) == [(1, 1)]


#: cells that rank apart or together in ways Python equality does not
#: spell out: ``None``, booleans (``True == 1`` yet they rank apart),
#: ints and the integral floats equal to them (``1 == 1.0``, ``0 ==
#: -0.0``), an int no float equals, infinities and short strings
cells = st.one_of(
    st.integers(0, 3), st.none(), st.booleans(), st.just(np.True_),
    st.sampled_from([1.0, -0.0, 2.0 ** 53, 2 ** 53 + 1,
                     float("inf"), float("-inf")]),
    st.sampled_from(["", "a", "ab"]))

rows_strategy = st.lists(st.tuples(cells, cells), min_size=0, max_size=8)

#: (type, cell) -> a cell of another type the encoder keys alike
EQUIVALENT = {(int, 1): 1.0, (float, 1.0): 1, (int, 0): -0.0,
              (bool, True): np.True_}


@st.composite
def relation_and_batches(draw):
    base = draw(rows_strategy)
    live = list(base)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            if live and draw(st.booleans()):
                victim = live.pop(
                    draw(st.integers(0, len(live) - 1)))
                if draw(st.booleans()):
                    # name the row by equal-keyed cells of other types
                    victim = tuple(EQUIVALENT.get((type(value), value),
                                                  value)
                                   for value in victim)
                ops.append((-1, victim))
            else:
                row = draw(st.tuples(cells, cells))
                ops.append((1, row))
                live.append(row)
        batches.append(DeltaBatch(ops))
    relation = rel(base)
    if draw(st.booleans()):
        relation.encode()
    return relation, batches


def assert_encoded_like_scratch(relation):
    """The relation's (derived) encoding equals a from-scratch one."""
    scratch = rel(list(relation.rows())).encode()
    encoded = relation.encode()
    assert [c.tolist() for c in encoded.ranks] == \
        [c.tolist() for c in scratch.ranks]
    assert [k.sorted_keys for k in encoded.keys] == \
        [k.sorted_keys for k in scratch.keys]


class TestReplayEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(relation_and_batches())
    def test_one_pass_replay_matches_sequential_apply(self, case):
        """After every batch the rank-space fold answers like the
        raw-value resolver: the same positions and inserts, the same
        rows with the same types, and the from-scratch encoding."""
        relation, batches = case
        sequential = relation
        for applied, batch in enumerate(batches, start=1):
            rows = list(sequential.rows())
            expected = next(raw_resolver.resolve(rows, 2, [batch]))
            assert batch.split(sequential) == expected
            fold = batch.fold(sequential)
            assert (fold.deletes, fold.inserts) == expected
            sequential = fold.relation
            oracle_rows = raw_resolver.replay(rows, 2, [batch])
            assert raw_resolver.typed(sequential.rows()) == \
                raw_resolver.typed(oracle_rows)
            assert_encoded_like_scratch(sequential)
            replayed = replay_relation(relation, batches[:applied])
            assert raw_resolver.typed(replayed.rows()) == \
                raw_resolver.typed(oracle_rows)
            assert fingerprint(replayed) == fingerprint(sequential)

    def test_later_batch_can_delete_earlier_batch_insert(self):
        relation = rel([(1, 1)])
        out = replay_relation(relation, [
            DeltaBatch.inserts([(5, 5)]),
            DeltaBatch.deletes([(5, 5)]),
        ])
        assert list(out.rows()) == [(1, 1)]

    def test_replay_raises_like_split(self):
        with pytest.raises(DataError):
            replay_relation(rel([(1, 1)]),
                            [DeltaBatch.deletes([(9, 9)])])
