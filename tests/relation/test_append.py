"""The append path: incremental re-encoding equals from-scratch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deltalog import DeltaBatch
from repro.errors import DataError, SchemaError
from repro.relation.encoding import ColumnKeys
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from tests.conftest import make_relation


class TestColumnKeys:
    def test_from_values_matches_rank_encode(self):
        ranks, keys = ColumnKeys.from_values([30, 10, 10, 20])
        assert ranks.tolist() == [2, 0, 0, 1]
        assert keys.n_distinct == 3

    def test_extend_remaps_monotonically(self):
        _, keys = ColumnKeys.from_values([10, 30])
        extended, extension = keys.extend([20, 5])
        # old ranks 0 (10) and 1 (30) shift around the inserts
        assert extension.remap.tolist() == [1, 3]
        assert (np.diff(extension.remap) > 0).all()
        assert extended.n_distinct == 4
        # batch ranks in the new domain: 20 -> 2, 5 -> 0
        assert extension.batch_ranks.tolist() == [2, 0]

    def test_gids_are_stable_first_appearance_ids(self):
        _, keys = ColumnKeys.from_values([10, 30])
        extended, _ = keys.extend([20])
        # 20 gets fresh gid 2; 10 and 30 keep gids 0 and 1 even though
        # 30's rank moved
        assert extended.gid_sorted.tolist() == [0, 2, 1]

    def test_empty_extension(self):
        _, keys = ColumnKeys.from_values([1, 2])
        extended, extension = keys.extend([])
        assert extension.remap.tolist() == [0, 1]
        assert len(extension.batch_ranks) == 0
        assert extended.n_distinct == 2


class TestAppendRows:
    def test_appends_values(self):
        relation = make_relation(2, [(1, 2)])
        appended = relation.append_rows([(3, 4), (5, 6)])
        assert appended.n_rows == 3
        assert relation.n_rows == 1                 # untouched
        assert appended.row(2) == (5, 6)

    def test_wrong_arity_rejected(self):
        relation = make_relation(2, [(1, 2)])
        with pytest.raises(DataError):
            relation.append_rows([(1, 2, 3)])

    def test_append_relation_checks_schema(self):
        relation = make_relation(2, [(1, 2)])
        other = Relation.from_rows(["x", "y"], [(3, 4)])
        with pytest.raises(SchemaError):
            relation.append_relation(other)
        same = make_relation(2, [(3, 4)])
        assert relation.append_relation(same).n_rows == 2

    def test_carries_encoding_incrementally(self):
        relation = make_relation(2, [(10, 1), (30, 2)])
        relation.encode()
        appended = relation.append_rows([(20, 3)])
        # the appended relation arrives pre-encoded (no re-sort)
        assert appended._encoded is not None
        scratch = make_relation(2, [(10, 1), (30, 2), (20, 3)]).encode()
        for a in range(2):
            assert np.array_equal(appended.encode().column(a),
                                  scratch.column(a))

    def test_without_prior_encode_still_correct(self):
        relation = make_relation(1, [(5,), (7,)])
        appended = relation.append_rows([(6,)])
        assert appended.encode().column(0).tolist() == [0, 2, 1]


cell = st.one_of(st.none(), st.integers(min_value=-3, max_value=3),
                 st.sampled_from(["a", "b", "c"]),
                 st.floats(min_value=-2, max_value=2,
                           allow_nan=False, width=16))


@st.composite
def append_case(draw):
    n_cols = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*([cell] * n_cols))
    rows = draw(st.lists(row, min_size=0, max_size=8))
    batches = draw(st.lists(st.lists(row, min_size=0, max_size=5),
                            min_size=1, max_size=3))
    return n_cols, rows, batches


class TestIncrementalEncodingProperty:
    @settings(max_examples=80, deadline=None)
    @given(append_case())
    def test_equals_from_scratch(self, case):
        n_cols, rows, batches = case
        current = make_relation(n_cols, rows)
        current.encode()
        all_rows = list(rows)
        for batch in batches:
            current = current.append_rows(batch)
            all_rows.extend(batch)
            scratch = make_relation(n_cols, all_rows).encode()
            incremental = current.encode()
            for a in range(n_cols):
                assert np.array_equal(incremental.column(a),
                                      scratch.column(a))


class TestBranchedAppends:
    """Several appends branching from one snapshot must each stay
    correct (the gid table is shared; sorted dictionaries are not)."""

    def test_double_append_from_same_snapshot(self):
        relation = make_relation(1, [(1,), (2,)])
        relation.encode()
        first = relation.append_rows([(5,)])
        second = relation.append_rows([(5,)])     # same branch point
        assert first.encode().column(0).tolist() == [0, 1, 2]
        assert second.encode().column(0).tolist() == [0, 1, 2]

    def test_diverging_branches(self):
        relation = make_relation(1, [(10,), (30,)])
        relation.encode()
        left = relation.append_rows([(20,)])
        right = relation.append_rows([(40,), (20,)])
        assert left.encode().column(0).tolist() == [0, 2, 1]
        assert right.encode().column(0).tolist() == [0, 2, 3, 1]
        # and branches keep extending independently
        left2 = left.append_rows([(40,)])
        assert left2.encode().column(0).tolist() == [0, 2, 1, 3]

    def test_interleaved_branch_extensions(self):
        relation = make_relation(1, [(1,), (9,)])
        relation.encode()
        a1 = relation.append_rows([(5,)])         # sibling mints a gid
        b1 = relation.append_rows([(7,)])
        b2 = b1.append_rows([(5,)])               # key named by sibling
        assert a1.encode().column(0).tolist() == [0, 2, 1]
        assert b2.encode().column(0).tolist() == [0, 3, 2, 1]


class TestKeyTableChurn:
    def test_table_stays_bounded_under_churn(self):
        """200 batches that each replace 10 of 1000 unique keys with
        novel ones: deletes compact a column's table once it holds
        more than twice the column's distinct keys, and the encoding
        stays equal to a from-scratch one."""
        rows = [(i, i % 7) for i in range(1000)]
        relation = Relation.from_rows(["key", "small"], rows)
        relation.encode()
        fresh = 1000
        for step in range(200):
            victims = rows[step * 5:step * 5 + 10]
            batch = DeltaBatch.updates(
                [(old, (fresh + j, old[1])) for j, old in
                 enumerate(victims)])
            rows = [row for row in rows if row not in victims] + [
                (fresh + j, old[1]) for j, old in enumerate(victims)]
            fresh += 10
            relation = batch.apply_to(relation)
            keys = relation.encode().keys[0]
            assert len(keys._key_of) <= 2 * keys.n_distinct + 10
            assert len(keys.rank_of_gid()) <= 2 * keys.n_distinct + 10
        encoded = relation.encode()
        scratch = Relation.from_rows(["key", "small"],
                                     relation.rows()).encode()
        for a in range(2):
            assert np.array_equal(encoded.column(a), scratch.column(a))
            assert (encoded.keys[a].sorted_keys
                    == scratch.keys[a].sorted_keys)
        assert fingerprint(encoded) == fingerprint(scratch)
        assert sorted(relation.rows()) == sorted(rows)


class TestExoticValueTypes:
    def test_append_of_non_comparable_values(self):
        class Tag:
            def __init__(self, name):
                self.name = name

            def __eq__(self, other):
                return isinstance(other, Tag) and other.name == self.name

            def __hash__(self):
                return hash(self.name)

            def __repr__(self):
                return f"Tag({self.name!r})"

        rows = [(Tag("x"),), (Tag("y"),)]
        relation = make_relation(1, rows)
        relation.encode()
        appended = relation.append_rows([(Tag("z"),), (Tag("x"),)])
        scratch = make_relation(
            1, rows + [(Tag("z"),), (Tag("x"),)]).encode()
        assert np.array_equal(appended.encode().column(0),
                              scratch.column(0))
