"""Tests for dense-rank encoding, including order preservation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DataError
from repro.relation.encoding import (
    EncodedRelation,
    rank_encode_column,
    sort_key,
)


class TestRankEncode:
    def test_basic(self):
        assert list(rank_encode_column([30, 10, 10, 20])) == [2, 0, 0, 1]

    def test_strings(self):
        assert list(rank_encode_column(["b", "a", "c", "a"])) == [1, 0, 2, 0]

    def test_none_sorts_first(self):
        assert list(rank_encode_column([5, None, 7])) == [1, 0, 2]

    def test_numpy_scalars_order_numerically(self):
        # regression: np.int64 must not fall back to repr ordering
        values = [np.int64(10), np.int64(2), np.int64(1)]
        assert list(rank_encode_column(values)) == [2, 1, 0]

    def test_int_float_equivalence(self):
        assert list(rank_encode_column([1, 1.0, 2])) == [0, 0, 1]

    def test_mixed_types_total_order(self):
        ranks = rank_encode_column([None, "x", 3, True, 2.5])
        # kinds order: None < bool < number < string
        assert ranks[0] < ranks[3] < ranks[4] < ranks[2] < ranks[1]

    def test_empty_column(self):
        assert len(rank_encode_column([])) == 0

    @given(st.lists(st.integers(min_value=-50, max_value=50)))
    def test_order_and_classes_preserved(self, values):
        ranks = rank_encode_column(values)
        for i in range(len(values)):
            for j in range(len(values)):
                assert (values[i] < values[j]) == (ranks[i] < ranks[j])
                assert (values[i] == values[j]) == (ranks[i] == ranks[j])

    @given(st.lists(st.one_of(st.none(), st.integers(-5, 5),
                              st.text(max_size=2), st.booleans()),
                    max_size=15))
    def test_mixed_columns_dense(self, values):
        ranks = rank_encode_column(values)
        if len(values):
            assert set(ranks.tolist()) == set(range(len(set(
                sort_key(v) for v in values))))


class TestSortKey:
    def test_dates_compare_within_type(self):
        import datetime

        early = sort_key(datetime.date(2020, 1, 5))
        late = sort_key(datetime.date(2020, 1, 10))
        assert early < late  # value-based, not repr-based

    def test_bool_is_not_number(self):
        assert sort_key(True)[0] != sort_key(1)[0]

    def test_infinities_bound_the_finite_numbers(self):
        inf = float("inf")
        column = [inf, 3, -inf, 2.5, np.float64(-inf), 10 ** 6]
        assert rank_encode_column(column).tolist() == [4, 2, 0, 1, 0, 3]

    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan"),
                                     np.float32("nan")])
    def test_nan_is_a_data_error(self, nan):
        with pytest.raises(DataError, match="NaN"):
            sort_key(nan)
        with pytest.raises(DataError, match="NaN"):
            EncodedRelation.from_columns(["a"], [[1, nan]])


class TestEncodedRelation:
    def test_mismatched_names(self):
        with pytest.raises(ValueError):
            EncodedRelation(["a", "b"], [np.array([1])])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EncodedRelation(["a", "b"],
                            [np.array([1]), np.array([1, 2])])

    def test_tuple_ranks(self):
        enc = EncodedRelation(
            ["a", "b"], [np.array([0, 1]), np.array([2, 3])])
        assert enc.tuple_ranks(1, [1, 0]) == (3, 1)

    def test_empty(self):
        enc = EncodedRelation([], [])
        assert enc.n_rows == 0
        assert enc.arity == 0
