"""The distinct-first encoder equals the per-cell one.

``ColumnKeys.from_values`` keys each distinct ``(type, value)`` pair
once and ranks an all-integer column through ``np.unique``;
:mod:`tests.relation.percell_encoder` keys every cell.  On columns
drawn from every kind of cell the encoder accepts or refuses, both
must give the same ranks, the same key table with the same element
types, the same fingerprint, the same ``DataError`` text and the
same extension by a further batch.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.relation import encoding
from repro.relation.encoding import ColumnKeys, EncodedRelation
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from tests.relation import percell_encoder


class Opaque:
    """A hashable cell type with no order: a column holding two of
    them sorts its keys by ``repr``."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"Opaque({self.tag!r})"


def _numpy(kind):
    return st.integers(-4, 4).map(kind)


#: one strategy per kind of cell; a homogeneous column draws from one
CELL_KINDS = {
    "none": st.none(),
    "bool": st.booleans(),
    "np.bool_": st.sampled_from([np.True_, np.False_]),
    "int": st.integers(-4, 4),
    "np.int32": _numpy(np.int32),
    "np.int64": _numpy(np.int64),
    "np.uint64": st.sampled_from([np.uint64(0), np.uint64(3),
                                  np.uint64(2 ** 63),
                                  np.uint64(2 ** 64 - 1)]),
    "big int": st.sampled_from([10 ** 30, -(10 ** 30), 2 ** 53 + 1,
                                2 ** 63, 2 ** 63 - 1, -(2 ** 63)]),
    "float": st.floats(-4, 4, allow_nan=False, width=16),
    "special float": st.sampled_from([-0.0, 0.0, 2.0 ** 53,
                                      float("inf"), float("-inf")]),
    "np.float32": st.sampled_from([np.float32(0.5), np.float32(2),
                                   np.float32(-0.0),
                                   np.float32("inf")]),
    "Decimal": st.sampled_from([Decimal("1.5"), Decimal("2"),
                                Decimal("2.0"), Decimal("-0")]),
    "Fraction": st.sampled_from([Fraction(1, 3), Fraction(4, 2),
                                 Fraction(-1, 2)]),
    "str": st.sampled_from(["", "a", "b", "a\x00", "A"]),
    "np.str_": st.sampled_from([np.str_("a"), np.str_("b")]),
    "date": st.sampled_from([datetime.date(2020, 1, 5),
                             datetime.date(2020, 1, 10),
                             datetime.date(1999, 12, 31)]),
    "opaque": st.sampled_from([Opaque(1), Opaque(2), Opaque("x")]),
}

#: cells the encoder refuses with a DataError
BAD_CELLS = st.sampled_from([float("nan"), np.float64("nan"),
                             np.float32("nan"), complex(1, 2),
                             np.complex128(1), [1]])

MIXED = st.one_of(*CELL_KINDS.values())


@st.composite
def columns(draw, max_size=30):
    """A homogeneous or a mixed column, now and then with bad cells."""
    kind = draw(st.sampled_from([None, *CELL_KINDS]))
    cell = MIXED if kind is None else CELL_KINDS[kind]
    if draw(st.integers(0, 9)) == 0:
        cell = st.one_of(cell, BAD_CELLS)
    return draw(st.lists(cell, max_size=max_size))


def typed(key):
    """A key with the type of every element spelled out."""
    if type(key) is tuple:
        return tuple(map(typed, key))
    return type(key), key


def table(keys):
    """Everything a ``ColumnKeys`` holds, with element types."""
    return (keys.gid_sorted.dtype, keys.gid_sorted.tolist(),
            [typed(key) for key in keys.sorted_keys],
            [(typed(key), gid) for key, gid in keys._gid_of.items()],
            [typed(key) for key in keys._key_of])


def encode_both(values):
    """Each encoder's (ranks, keys), or the text of its DataError."""
    outcomes = []
    for encode in (ColumnKeys.from_values, percell_encoder.from_values):
        try:
            outcomes.append(encode(values))
        except DataError as error:
            outcomes.append(str(error))
    return outcomes


class TestFromValues:
    @settings(max_examples=400, deadline=None)
    @given(columns())
    def test_equals_the_per_cell_encoder(self, values):
        got, expected = encode_both(values)
        if isinstance(expected, str):
            assert got == expected
            return
        ranks, keys = got
        expected_ranks, expected_keys = expected
        assert ranks.dtype == expected_ranks.dtype == np.int64
        assert ranks.tolist() == expected_ranks.tolist()
        assert table(keys) == table(expected_keys)
        assert (fingerprint(Relation.from_columns({"a": values}))
                == fingerprint(EncodedRelation(["a"], [expected_ranks])))

    @settings(max_examples=200, deadline=None)
    @given(columns(), columns(max_size=10))
    def test_extend_equals_the_per_cell_extend(self, values, batch):
        got, expected = encode_both(values)
        if isinstance(expected, str):
            return
        keys, expected_keys = got[1], expected[1]
        outcomes = []
        for extend, base in ((ColumnKeys.extend, keys),
                             (percell_encoder.extend, expected_keys)):
            try:
                extended, extension = extend(base, batch)
            except DataError as error:
                outcomes.append(str(error))
            else:
                outcomes.append((
                    extended is base, table(extended),
                    extension.remap.dtype, extension.remap.tolist(),
                    extension.batch_ranks.dtype,
                    extension.batch_ranks.tolist()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("values, ranks", [
        ([True, 1, np.True_, np.int64(1), 1.0], [0, 1, 0, 1, 1]),
        ([2 ** 63 - 1, -(2 ** 63), 0], [2, 0, 1]),
        ([2 ** 63, 2 ** 63 - 1], [1, 0]),
        ([np.uint64(2 ** 63), np.int64(-1)], [1, 0]),
        ([np.int8(-1), np.int16(2), np.int32(-1), 7], [0, 1, 0, 2]),
    ])
    def test_integer_route_boundaries(self, values, ranks):
        got, expected = encode_both(values)
        assert got[0].tolist() == expected[0].tolist() == ranks
        assert table(got[1]) == table(expected[1])

    def test_first_bad_cell_in_column_order_is_named(self):
        # the unhashable cell fails the dedup; the NaN before it must
        # still be the cell the error names
        values = ["a", float("nan"), [1], complex(1, 2)]
        got, expected = encode_both(values)
        assert got == expected
        assert "NaN" in got


class TestSortKeyCalls:
    """``sort_key`` runs once per distinct value, not once per cell."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = encoding.sort_key

        def counting(value):
            seen.append(value)
            return real(value)

        monkeypatch.setattr(encoding, "sort_key", counting)
        return seen

    def test_three_distinct_strings_key_three_times(self, calls):
        values = ["b", "a", "c"] * 3333 + ["a"]
        ranks, keys = ColumnKeys.from_values(values)
        assert len(calls) <= 3
        assert keys.n_distinct == 3 and ranks[:3].tolist() == [1, 0, 2]

    def test_an_integer_column_keys_nothing(self, calls):
        ranks, _ = ColumnKeys.from_values(list(range(10_000, 0, -1)))
        assert calls == []
        assert ranks[0] == 9_999

    def test_extend_keys_each_distinct_value_once(self, calls):
        _, keys = ColumnKeys.from_values([1, 2])
        keys.extend(["x", "y"] * 500)
        assert len(calls) <= 2
