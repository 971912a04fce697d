"""Tests for the in-memory Relation type."""

from __future__ import annotations

import pytest

from repro.errors import DataError, SchemaError
from repro.relation.table import Relation


@pytest.fixture
def small():
    return Relation.from_rows(
        ["a", "b", "c"],
        [(1, "x", 10), (2, "y", 20), (3, "x", 30), (1, "z", 40)])


class TestConstruction:
    def test_from_rows(self, small):
        assert small.n_rows == 4
        assert small.arity == 3
        assert small.row(2) == (3, "x", 30)

    def test_from_columns(self):
        rel = Relation.from_columns({"a": [1, 2], "b": [3, 4]})
        assert rel.names == ("a", "b")
        assert rel.row(1) == (2, 4)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError):
            Relation.from_rows(["a", "b"], [(1, 2), (3,)])

    def test_ragged_columns_rejected(self):
        from repro.relation.schema import Schema

        with pytest.raises(DataError):
            Relation(Schema(["a", "b"]), [[1, 2], [3]])

    def test_column_count_mismatch(self):
        from repro.relation.schema import Schema

        with pytest.raises(DataError):
            Relation(Schema(["a", "b"]), [[1]])

    def test_empty_relation(self):
        rel = Relation.from_rows(["a"], [])
        assert rel.n_rows == 0
        assert list(rel.rows()) == []


class TestAccess:
    def test_column_by_name(self, small):
        assert small.column("b") == ["x", "y", "x", "z"]

    def test_column_at(self, small):
        assert small.column_at(0) == [1, 2, 3, 1]
        with pytest.raises(SchemaError):
            small.column_at(9)

    def test_row_out_of_range(self, small):
        with pytest.raises(DataError):
            small.row(99)

    def test_len_and_iter(self, small):
        assert len(small) == 4
        assert len(list(small.rows())) == 4


class TestTransformations:
    def test_project_reorders(self, small):
        projected = small.project(["c", "a"])
        assert projected.names == ("c", "a")
        assert projected.row(0) == (10, 1)

    def test_take(self, small):
        assert small.take(2).n_rows == 2
        assert small.take(100).n_rows == 4
        assert small.take(-1).n_rows == 0

    def test_sample_deterministic(self, small):
        first = small.sample(2, seed=3)
        second = small.sample(2, seed=3)
        assert first == second
        assert first.n_rows == 2

    def test_sample_all(self, small):
        assert small.sample(10, seed=0) is small

    def test_select_and_drop_rows(self, small):
        kept = small.select_rows([0, 3])
        assert [r for r in kept.rows()] == [small.row(0), small.row(3)]
        dropped = small.drop_rows([1, 2])
        assert dropped == kept
        # indices may come unsorted, repeated or out of range, and the
        # derived encoding equals a from-scratch one
        big = Relation.from_rows(["a", "b"],
                                 [(i % 7, str(i)) for i in range(300)])
        big.encode()
        gone = [*range(299, 0, -3), 5, 5, -1, 300]
        survivors = [i for i in range(300) if i not in set(gone)]
        cut = big.drop_rows(gone)
        assert cut == big.select_rows(survivors)
        scratch = Relation.from_rows(["a", "b"], cut.rows()).encode()
        assert [c.tolist() for c in cut.encode().ranks] == \
            [c.tolist() for c in scratch.ranks]

    def test_rename(self, small):
        renamed = small.rename({"a": "alpha"})
        assert renamed.names == ("alpha", "b", "c")
        assert renamed.column("alpha") == small.column("a")

    def test_projection_does_not_alias(self, small):
        projected = small.project(["a"])
        projected.column("a")[0] = 999
        assert small.column("a")[0] == 1


class TestEncoding:
    def test_encode_cached(self, small):
        assert small.encode() is small.encode()

    def test_encode_shape(self, small):
        encoded = small.encode()
        assert encoded.n_rows == 4
        assert encoded.arity == 3
        assert encoded.names == ("a", "b", "c")

    def test_pretty_contains_names(self, small):
        text = small.pretty()
        assert "a" in text and "x" in text

    def test_pretty_truncates(self, small):
        text = small.pretty(limit=1)
        assert "more rows" in text
