"""Differential tests for the partition kernels.

Every product and swap verdict dispatches through :mod:`repro.kernels`
at any input size, to one of two implementations: the vectorized NumPy
reference backend and the compiled backend's scalar C loops.  These
tests pin both against the slow oracles on randomized relations, down
to the 0-, 1- and 2-row inputs:

* ``StrippedPartition.product``  vs  ``partition_from_columns``
* the swap scan                  vs  the per-class witness scan
                                     ``scan_find_swap`` and the
                                     list-based ``order_compatible``
                                     oracle (Definition 3)
* the split scan                 vs  dict-grouping reference

including the all-singleton (superkey context), single-class, and
empty-relation edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import kernels
from repro.core.od import OrderCompatibility, as_spec
from repro.core.validation import (
    find_split,
    find_swap,
    is_compatible_in_classes,
    is_constant_in_classes,
    order_compatible,
    scan_find_swap,
    swap_classes,
)
from repro.partitions.partition import (
    StrippedPartition,
    partition_from_columns,
    value_group_sizes,
)
from tests.conftest import random_relation, small_relations


@pytest.fixture(params=["reference", "compiled"],
                ids=["vectorized", "scalar"])
def backend(request):
    """Run the test body under each kernel backend: the vectorized
    NumPy reference and the compiled scalar C loops (skipped without a
    C toolchain)."""
    if request.param == "compiled" and not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    with kernels.activate(request.param) as active:
        yield active.name


def _split_halves(encoded):
    split = max(1, encoded.arity // 2)
    return list(range(split)), list(range(split, encoded.arity))


# ----------------------------------------------------------------------
# product vs from-scratch hashing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_rows", [0, 1, 2, 50, 200])
def test_product_matches_oracle_random(seed, n_rows, backend):
    relation = random_relation(seed, n_cols=4, n_rows=n_rows, domain=3)
    encoded = relation.encode()
    left_attrs, right_attrs = _split_halves(encoded)
    left = partition_from_columns(encoded, left_attrs)
    right = partition_from_columns(encoded, right_attrs)
    combined = partition_from_columns(encoded, left_attrs + right_attrs)
    assert left.product(right) == combined
    assert right.product(left) == combined


def test_product_all_singletons(backend):
    """Superkey partitions refine everything to nothing."""
    keys = StrippedPartition.from_ranks(np.arange(64))
    blob = StrippedPartition.single_class(64)
    assert keys.is_superkey()
    assert keys.product(blob).is_superkey()
    assert blob.product(keys).is_superkey()


def test_product_single_class_identity(backend):
    column = StrippedPartition.from_ranks(
        np.array([0, 1, 0, 1, 2, 2] * 20))
    everything = StrippedPartition.single_class(120)
    assert everything.product(column) == column
    assert column.product(everything) == column


def test_product_empty_relation(backend):
    empty = StrippedPartition.from_ranks(np.array([], dtype=np.int64))
    assert empty.product(empty).n_rows == 0
    assert empty.product(empty).is_superkey()


# ----------------------------------------------------------------------
# flat layout invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_flat_layout_consistent(seed):
    relation = random_relation(seed, n_cols=3, n_rows=150, domain=4)
    encoded = relation.encode()
    partition = partition_from_columns(encoded, [0, 1])
    assert partition.offsets[0] == 0
    assert partition.offsets[-1] == len(partition.rows)
    assert (partition.class_sizes >= 2).all()
    assert partition.n_grouped_rows == sum(map(len, partition.classes))
    # classes view round-trips the flat arrays
    rebuilt = StrippedPartition(partition.classes, partition.n_rows)
    assert np.array_equal(rebuilt.rows, partition.rows)
    assert np.array_equal(rebuilt.offsets, partition.offsets)
    # class_ids is the inverse expansion
    ids = partition.class_ids()
    for class_id, rows in enumerate(partition.classes):
        assert (ids[partition.offsets[class_id]:
                    partition.offsets[class_id + 1]] == class_id).all()


# ----------------------------------------------------------------------
# swap scan vs scalar scan and the list-based oracle
# ----------------------------------------------------------------------
def _reference_swap_free(column_a, column_b, context):
    """Per-class witness scan, class by class (the test oracle)."""
    return all(
        scan_find_swap(column_a, column_b, np.asarray(rows), "a", "b")
        is None for rows in context.classes)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_rows,domain", [(0, 1), (30, 2), (120, 3),
                                           (120, 8), (200, 2)])
def test_swap_scan_matches_scalar_reference(seed, n_rows, domain,
                                            backend):
    relation = random_relation(seed, n_cols=4, n_rows=n_rows,
                               domain=domain)
    encoded = relation.encode()
    context = partition_from_columns(encoded, [0])
    column_a = encoded.column(1)
    column_b = encoded.column(2)
    expected = _reference_swap_free(column_a, column_b, context)
    assert is_compatible_in_classes(column_a, column_b,
                                    context) == expected
    witness = find_swap(column_a, column_b, context, "c1", "c2")
    assert (witness is None) == expected
    guilty = swap_classes(column_a, column_b, context)
    assert (len(guilty) == 0) == expected
    if witness is not None:
        # the witness really is a swap: equal on context, discordant
        row_s, row_t = witness.row_s, witness.row_t
        assert encoded.column(0)[row_s] == encoded.column(0)[row_t]
        assert column_a[row_s] < column_a[row_t]
        assert column_b[row_s] > column_b[row_t]


@settings(max_examples=60, deadline=None)
@given(small_relations(max_cols=4, max_rows=12, max_domain=2))
def test_swap_scan_matches_list_oracle(relation):
    """Canonical ``X: A ~ B`` == list-level ``XA ~ XB`` (Theorem 5's
    compatibility part), with the list side checked straight from
    Definitions 3/5 by ``order_compatible``."""
    encoded = relation.encode()
    if encoded.arity < 3:
        return
    context_attrs = [0]
    a, b = 1, 2
    context = partition_from_columns(encoded, context_attrs)
    fast = is_compatible_in_classes(
        encoded.column(a), encoded.column(b), context)
    names = encoded.names
    lhs = as_spec([names[0], names[a]])
    rhs = as_spec([names[0], names[b]])
    assert fast == order_compatible(
        encoded, OrderCompatibility(lhs, rhs))


def test_swap_scan_negated_column(backend):
    """Bidirectional extensions negate rank columns; the banded
    prefix-max must survive negative values."""
    rng = np.random.default_rng(7)
    column_a = rng.integers(0, 50, size=150).astype(np.int64)
    column_b = rng.integers(0, 50, size=150).astype(np.int64)
    context = StrippedPartition.from_ranks(
        rng.integers(0, 3, size=150).astype(np.int64))
    expected = _reference_swap_free(column_a, -column_b, context)
    assert is_compatible_in_classes(column_a, -column_b,
                                    context) == expected


def test_swap_scan_superkey_and_empty(backend):
    superkey = StrippedPartition.from_ranks(np.arange(100))
    column = np.arange(100)
    assert is_compatible_in_classes(column, column[::-1].copy(), superkey)
    assert find_swap(column, column[::-1].copy(), superkey,
                     "a", "b") is None
    empty = StrippedPartition.from_ranks(np.array([], dtype=np.int64))
    nothing = np.array([], dtype=np.int64)
    assert is_compatible_in_classes(nothing, nothing, empty)


# ----------------------------------------------------------------------
# split scan vs dict-grouping reference
# ----------------------------------------------------------------------
def _reference_constant(column, context):
    return all(len({int(v) for v in column[rows]}) <= 1
               for rows in context.classes)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_rows,domain", [(0, 1), (40, 2), (150, 2),
                                           (150, 10)])
def test_split_scan_matches_reference(seed, n_rows, domain):
    relation = random_relation(seed, n_cols=3, n_rows=n_rows,
                               domain=domain)
    encoded = relation.encode()
    context = partition_from_columns(encoded, [0, 1])
    column = encoded.column(2)
    expected = _reference_constant(column, context)
    assert is_constant_in_classes(column, context) == expected
    witness = find_split(column, context, "c2")
    assert (witness is None) == expected
    if witness is not None:
        assert encoded.column(0)[witness.row_s] == \
            encoded.column(0)[witness.row_t]
        assert encoded.column(1)[witness.row_s] == \
            encoded.column(1)[witness.row_t]
        assert column[witness.row_s] != column[witness.row_t]


def test_value_group_sizes_superkey_and_empty():
    superkey = StrippedPartition.from_ranks(np.arange(10))
    sizes, owners = value_group_sizes(np.arange(10), superkey)
    assert len(sizes) == 0 and len(owners) == 0
    empty = StrippedPartition.from_ranks(np.array([], dtype=np.int64))
    sizes, owners = value_group_sizes(np.array([], dtype=np.int64), empty)
    assert len(sizes) == 0 and len(owners) == 0


def test_value_group_sizes_counts():
    context = StrippedPartition([[0, 1, 2], [3, 4]], 6)
    column = np.array([7, 7, 9, 9, 9, 0])
    sizes, owners = value_group_sizes(column, context)
    assert sizes.tolist() == [2, 1, 2]
    assert owners.tolist() == [0, 0, 1]


def test_split_scan_single_class_and_empty():
    everything = StrippedPartition.single_class(80)
    constant = np.zeros(80, dtype=np.int64)
    assert is_constant_in_classes(constant, everything)
    varied = np.arange(80)
    assert not is_constant_in_classes(varied, everything)
    split = find_split(varied, everything, "x")
    assert split is not None and split.row_s != split.row_t
    empty = StrippedPartition.from_ranks(np.array([], dtype=np.int64))
    assert is_constant_in_classes(np.array([], dtype=np.int64), empty)
    assert find_split(np.array([], dtype=np.int64), empty, "x") is None
