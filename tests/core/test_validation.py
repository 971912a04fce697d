"""Tests for validators and violation witnesses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.od import (
    CanonicalFD,
    CanonicalOCD,
    ListOD,
    OrderCompatibility,
)
from repro.core.validation import (
    CanonicalValidator,
    is_compatible_in_classes,
    is_constant_in_classes,
    list_od_holds,
    order_compatible,
    order_equivalent,
    split_witnesses,
    swap_witnesses,
)
from repro.partitions.partition import StrippedPartition
from tests.conftest import make_relation, small_relations


class TestConstantChecks:
    def test_constant(self):
        column = np.array([5, 5, 7, 7])
        partition = StrippedPartition([[0, 1], [2, 3]], 4)
        assert is_constant_in_classes(column, partition)

    def test_not_constant(self):
        column = np.array([5, 6, 7, 7])
        partition = StrippedPartition([[0, 1], [2, 3]], 4)
        assert not is_constant_in_classes(column, partition)
        [witness] = split_witnesses(column, partition, "a", 3)
        assert column[witness.row_s] != column[witness.row_t]

    def test_singletons_never_split(self):
        column = np.array([1, 2, 3])
        partition = StrippedPartition([], 3)  # superkey context
        assert is_constant_in_classes(column, partition)
        assert split_witnesses(column, partition, "a", 3) == []


class TestCompatibilityChecks:
    def test_compatible(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([0, 0, 1, 2])
        partition = StrippedPartition([[0, 1, 2, 3]], 4)
        assert is_compatible_in_classes(a, b, partition)

    def test_swap(self):
        a = np.array([0, 1])
        b = np.array([1, 0])
        partition = StrippedPartition([[0, 1]], 2)
        assert not is_compatible_in_classes(a, b, partition)
        [swap] = swap_witnesses(a, b, partition, "a", "b", 3)
        # witness is oriented: row_s precedes in A, follows in B
        assert a[swap.row_s] < a[swap.row_t]
        assert b[swap.row_s] > b[swap.row_t]

    def test_equal_a_never_swaps(self):
        a = np.array([1, 1, 1])
        b = np.array([3, 1, 2])
        partition = StrippedPartition([[0, 1, 2]], 3)
        assert is_compatible_in_classes(a, b, partition)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=2, max_size=10))
    def test_scan_matches_pairwise_definition(self, pairs):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        partition = StrippedPartition([list(range(len(pairs)))], len(pairs))
        expected = not any(
            a[i] < a[j] and b[i] > b[j]
            for i in range(len(pairs)) for j in range(len(pairs)))
        assert is_compatible_in_classes(a, b, partition) == expected
        witnesses = swap_witnesses(a, b, partition, "a", "b", 1)
        assert (not witnesses) == expected
        for witness in witnesses:
            assert a[witness.row_s] < a[witness.row_t]
            assert b[witness.row_s] > b[witness.row_t]


class TestListValidators:
    def test_empty_lhs_requires_constant_rhs(self):
        rel = make_relation(2, [(1, 5), (2, 5)])
        assert list_od_holds(rel, ListOD([], ["c1"]))
        assert not list_od_holds(rel, ListOD([], ["c0"]))

    def test_empty_relation_everything_holds(self):
        rel = make_relation(2, [])
        assert list_od_holds(rel, ListOD(["c0"], ["c1"]))
        assert order_compatible(rel, OrderCompatibility(["c0"], ["c1"]))

    def test_single_row(self):
        rel = make_relation(2, [(1, 2)])
        assert list_od_holds(rel, ListOD(["c0"], ["c1"]))

    def test_od_with_duplicates_in_spec(self):
        rel = make_relation(2, [(1, 9), (1, 8), (2, 7)])
        # c0 -> c0,c1 fails: rows 0,1 tie on c0 but differ on c1
        assert not list_od_holds(rel, ListOD(["c0"], ["c0", "c1"]))

    def test_order_equivalent(self):
        rel = make_relation(2, [(1, 10), (2, 20), (3, 30)])
        assert order_equivalent(rel, ["c0"], ["c1"])
        rel2 = make_relation(2, [(1, 10), (2, 20), (2, 30)])
        assert not order_equivalent(rel2, ["c1"], ["c0"])

    def test_compatibility_weaker_than_od(self):
        # compatible but not an OD (ties on lhs with differing rhs)
        rel = make_relation(2, [(1, 1), (1, 2), (2, 3)])
        assert order_compatible(rel, OrderCompatibility(["c0"], ["c1"]))
        assert not list_od_holds(rel, ListOD(["c0"], ["c1"]))


class TestCanonicalValidator:
    def test_trivial_always_hold(self):
        rel = make_relation(2, [(1, 2), (2, 1)])
        validator = CanonicalValidator(rel)
        assert validator.holds(CanonicalFD({"c0"}, "c0"))
        assert validator.holds(CanonicalOCD({"c0"}, "c0", "c1"))
        assert validator.witness(CanonicalFD({"c0"}, "c0")) is None
        assert validator.witness(CanonicalOCD({"c1"}, "c1", "c0")) is None

    def test_unknown_attribute(self):
        rel = make_relation(1, [(1,)])
        validator = CanonicalValidator(rel)
        with pytest.raises(KeyError):
            validator.holds(CanonicalFD({"zzz"}, "c0"))

    def test_accepts_relation_or_encoded(self):
        rel = make_relation(2, [(1, 1), (2, 2)])
        assert CanonicalValidator(rel).holds(
            CanonicalOCD(set(), "c0", "c1"))
        assert CanonicalValidator(rel.encode()).holds(
            CanonicalOCD(set(), "c0", "c1"))

    @settings(max_examples=80, deadline=None)
    @given(small_relations(max_cols=3, max_rows=8, max_domain=2))
    def test_witness_iff_not_holds(self, relation):
        validator = CanonicalValidator(relation)
        names = relation.names
        for attribute in names:
            context = frozenset(n for n in names if n != attribute)
            fd = CanonicalFD(context, attribute)
            assert (validator.witness(fd) is None) == validator.holds(fd)
        if len(names) >= 2:
            ocd = CanonicalOCD(frozenset(names[2:]), names[0], names[1])
            assert (validator.witness(ocd) is None) == validator.holds(ocd)


class TestTheorem2:
    """X -> Y (FD) iff the OD X ↦ XY, on data."""

    @settings(max_examples=80, deadline=None)
    @given(small_relations(max_cols=3, max_rows=8, max_domain=2))
    def test_fd_od_correspondence(self, relation):
        names = list(relation.names)
        if len(names) < 2:
            return
        lhs, rhs = [names[0]], [names[1]]
        od_form = list_od_holds(relation, ListOD(lhs, lhs + rhs))
        fd_form = CanonicalValidator(relation).holds(
            CanonicalFD(frozenset(lhs), rhs[0]))
        assert od_form == fd_form
