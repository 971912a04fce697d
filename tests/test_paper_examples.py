"""Exact reproduction of the paper's running examples (Table 1,
Examples 1-12, Table 2, and the Section 4.1 TPC-DS dependencies)."""

from __future__ import annotations

import pytest

from repro import (
    CanonicalValidator,
    ListOD,
    OrderCompatibility,
    discover_ods,
    list_od_holds,
    order_compatible,
    parse,
)
from repro.core.validation import swap_witnesses
from repro.datasets import date_dim, date_dim_planted, employees
from repro.partitions import SortedPartition, StrippedPartition
from repro.relation.table import Relation


@pytest.fixture(scope="module")
def table1():
    return employees()


@pytest.fixture(scope="module")
def validator(table1):
    return CanonicalValidator(table1.encode())


class TestExample1:
    """Example 1: the four ODs that hold on Table 1."""

    @pytest.mark.parametrize("lhs,rhs", [
        (["sal"], ["tax"]),
        (["sal"], ["perc"]),
        (["sal"], ["grp", "subg"]),
        (["yr", "sal"], ["yr", "bin"]),
    ])
    def test_holds(self, table1, lhs, rhs):
        assert list_od_holds(table1, ListOD(lhs, rhs))

    def test_order_of_rhs_matters(self, table1):
        # grp,subg works; subg,grp does not (lists, not sets!)
        assert not list_od_holds(table1, ListOD(["sal"], ["subg", "grp"]))


class TestExample2:
    """Example 2: order compatibility is weaker than an OD."""

    def test_month_week_compatible_but_no_od(self):
        # Month/week data in the spirit of the example: several weeks
        # per month, so month does not functionally determine week.
        rows = [(m, (m - 1) * 4 + w) for m in range(1, 7)
                for w in range(1, 5)]
        rel = Relation.from_rows(["d_month", "d_week"], rows)
        assert order_compatible(
            rel, OrderCompatibility(["d_month"], ["d_week"]))
        assert not list_od_holds(rel, ListOD(["d_month"], ["d_week"]))


class TestExample3:
    """Example 3: three splits for [posit] -> [posit,sal]; a swap for
    [sal] ~ [subg] over t1 and t2."""

    def test_three_splits(self, table1, validator):
        encoded = table1.encode()
        sal = encoded.names.index("sal")
        posit_partition = validator.cache.get(
            1 << encoded.names.index("posit"))
        from repro.violations import count_split_pairs

        assert count_split_pairs(
            encoded.column(sal), posit_partition) == 3

    def test_split_witness_pairs(self, table1):
        # the violating pairs are (t1,t4), (t2,t5), (t3,t6) = rows
        # (0,3), (1,4), (2,5)
        encoded = table1.encode()
        validator = CanonicalValidator(encoded)
        witness = validator.witness(parse("{posit}: [] -> sal"))
        assert witness is not None
        assert {witness.row_s % 3, witness.row_t % 3} == {witness.row_s % 3}

    def test_swap_sal_subg(self, table1):
        assert not order_compatible(
            table1, OrderCompatibility(["sal"], ["subg"]))
        encoded = table1.encode()
        sal = encoded.names.index("sal")
        subg = encoded.names.index("subg")
        [swap] = swap_witnesses(
            encoded.column(sal), encoded.column(subg),
            StrippedPartition.single_class(6), "sal", "subg", 1)
        # t1 (row 0) and t2 (row 1) are a swap: salary up, subgroup down
        assert {swap.row_s, swap.row_t} <= {0, 1, 2, 3, 4}


class TestExample4:
    """Example 4: canonical ODs that hold / fail on Table 1."""

    def test_bin_constant_within_position(self, validator):
        assert validator.holds(parse("{posit}: [] -> bin"))

    def test_bin_sal_compatible_within_year(self, validator):
        assert validator.holds(parse("{yr}: bin ~ sal"))

    def test_bin_subg_not_compatible_within_year(self, validator):
        assert not validator.holds(parse("{yr}: bin ~ subg"))

    def test_sal_not_constant_within_position(self, validator):
        assert not validator.holds(parse("{posit}: [] -> sal"))


class TestExample5:
    """Example 5: the canonical image of [A,B] -> [C,D]."""

    def test_mapping(self):
        from repro import map_list_od

        image = map_list_od(ListOD(["A", "B"], ["C", "D"]))
        rendered = {str(od) for od in image.all_ods}
        assert rendered == {
            "{A,B}: [] -> C",
            "{A,B}: [] -> D",
            "{}: A ~ C",
            "{A}: B ~ C",
            "{C}: A ~ D",
            "{A,C}: B ~ D",
        }


class TestExample6:
    """Example 6: Propagate — {sal}: [] -> tax gives {sal}: tax ~ yr."""

    def test_propagate_on_data(self, validator):
        assert validator.holds(parse("{sal}: [] -> tax"))
        assert validator.holds(parse("{sal}: tax ~ yr"))


class TestExample12:
    """Example 12: stripped partition of salary is {{t2, t6}}."""

    def test_stripped_partition(self, table1):
        encoded = table1.encode()
        sal = encoded.names.index("sal")
        partition = StrippedPartition.for_attribute(encoded, sal)
        assert partition.canonical_form() == frozenset(
            {frozenset({1, 5})})
        # the full partition keeps the four singletons
        assert len(partition.with_singletons()) == 5


class TestTable2:
    """Table 2: bucketization of a sorted partition by context class."""

    def setup_method(self):
        # tau_A = {{t3,t5,t8},{t1,t6},{t4},{t7},{t2}} and
        # Pi_X = {{t1},{t2},{t3,t4,t5},{t6,t7},{t8}} (1-indexed in the
        # paper; 0-indexed here).
        ranks = {2: 0, 4: 0, 7: 0, 0: 1, 5: 1, 3: 2, 6: 3, 1: 4}
        import numpy as np

        self.tau = SortedPartition.from_ranks(
            np.array([ranks[i] for i in range(8)]))

    def test_buckets(self):
        assert self.tau.buckets == [[2, 4, 7], [0, 5], [3], [6], [1]]

    def test_restrict_class_t3_t4_t5(self):
        # paper row: tau_A(E(t3 X)) = {t3, t5}, {t4}
        assert self.tau.restrict([2, 3, 4]) == [[2, 4], [3]]

    def test_restrict_class_t6_t7(self):
        # paper row: tau_A(E(t6 X)) = {t6}, {t7}
        assert self.tau.restrict([5, 6]) == [[5], [6]]


class TestClusteredIndexClaim:
    """Section 2.1: given [yr,sal] -> [yr,bin], a query ordering by
    yr,bin can reuse an index on yr,sal."""

    def test_index_satisfies_order(self, table1):
        assert list_od_holds(table1, ListOD(["yr", "sal"], ["yr", "bin"]))


class TestTpcdsDependencies:
    """Section 4.1: the canonical ODs FASTOD detects on TPC-DS."""

    def test_planted_hold(self):
        rel = date_dim(400)
        validator = CanonicalValidator(rel.encode())
        for text in date_dim_planted():
            assert validator.holds(parse(text)), text

    def test_discovered(self):
        rel = date_dim(200)
        result = discover_ods(rel)
        found = {str(od) for od in result.all_ods}
        # d_month ~ d_quarter is minimal (empty context, no constants)
        assert "{}: d_month ~ d_quarter" in found
        assert "{d_month}: [] -> d_quarter" in found


class TestTheorem1:
    """Theorem 1: X -> Y iff X -> XY and X ~ Y (checked on data)."""

    @pytest.mark.parametrize("lhs,rhs", [
        (["sal"], ["tax"]),
        (["sal"], ["subg"]),
        (["posit"], ["sal"]),
        (["yr", "sal"], ["yr", "bin"]),
        (["bin"], ["grp", "subg"]),
    ])
    def test_decomposition(self, table1, lhs, rhs):
        od = ListOD(lhs, rhs)
        fd_part = list_od_holds(table1, ListOD(lhs, lhs + rhs))
        compat_part = order_compatible(
            table1, OrderCompatibility(lhs, rhs))
        assert list_od_holds(table1, od) == (fd_part and compat_part)
