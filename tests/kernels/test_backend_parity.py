"""Byte-identity parity suite: compiled backend vs the reference.

The reference (NumPy) backend is the semantic definition of every
kernel; the compiled (C/ctypes) backend must reproduce its output *bit
for bit* on adversarial partition shapes — empty, all-singleton
(stripped to nothing), one giant class, interleaved ties — as well as
randomized CSR layouts.  ``swap_desc`` candidates negate a rank
column, so swap parity is also pinned on negated inputs; swap flags
are also pinned to the scalar per-class scan on coarse and near-empty
contexts and must not depend on τ_A's order within ties; and densify
parity covers the compiled kernel's sparse-range and negative-value
fallback paths.

Every test here skips cleanly when no C toolchain is available (the
fallback behavior itself is covered by test_backend_selection.py).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.fastod import FastOD, FastODConfig
from repro.core.validation import scan_find_swap
from repro.kernels.reference import ReferenceBackend
from repro.partitions.partition import StrippedPartition
from tests.conftest import random_relation

REFERENCE = ReferenceBackend()

N = 160

#: adversarial rank vectors; each induces a context partition shape
#: with a distinct failure mode (empty CSR, no classes at all, one
#: class spanning everything, classes interleaved row-by-row, and the
#: 1- to 3-row relations every kernel sees at any size)
RANKS = {
    "all-singleton": np.arange(N, dtype=np.int64),
    "one-giant": np.zeros(N, dtype=np.int64),
    "interleaved-ties": np.arange(N, dtype=np.int64) % 4,
    "two-block": np.repeat(np.array([0, 1], dtype=np.int64), N // 2),
    "random": np.random.default_rng(3).integers(0, 12, N),
    "empty": np.empty(0, dtype=np.int64),
    "one-row": np.zeros(1, dtype=np.int64),
    "two-row-tie": np.zeros(2, dtype=np.int64),
    "three-row": np.array([1, 0, 1], dtype=np.int64),
}

#: product operands must cover one relation: every ordered pair of
#: equal-length shapes
PRODUCT_PAIRS = [
    pytest.param(left, right, id=f"{right}-{left}")
    for left in sorted(RANKS) for right in sorted(RANKS)
    if len(RANKS[left]) == len(RANKS[right])
]


@pytest.fixture(scope="module")
def compiled():
    if not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    return kernels.resolve_backend("compiled")


def _assert_same(got, want, label):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == want_part.dtype, label
        assert np.array_equal(got_part, want_part), label


@pytest.mark.parametrize("left_name,right_name", PRODUCT_PAIRS)
def test_product_parity(left_name, right_name, compiled):
    left = StrippedPartition.from_ranks(RANKS[left_name])
    right = StrippedPartition.from_ranks(RANKS[right_name])
    args = (left.row_to_class(), right.rows, right.offsets,
            right.class_ids(), left.n_classes)
    _assert_same(compiled.partition_product(*args),
                 REFERENCE.partition_product(*args),
                 f"product({left_name}, {right_name})")


def _swap_args(col_a, col_b, context, order_a=None):
    """Backend ``swap_flags`` arguments; τ_A defaults to the argsort
    :meth:`EncodedRelation.order` computes."""
    if order_a is None:
        order_a = np.argsort(col_a)
    return (col_a, col_b, context.rows, context.offsets,
            context.class_ids(), order_a)


@pytest.mark.parametrize("name", sorted(RANKS))
@pytest.mark.parametrize("negate_b", [False, True])
def test_swap_parity(name, negate_b, compiled):
    context = StrippedPartition.from_ranks(RANKS[name])
    rng = np.random.default_rng(7)
    n = context.n_rows
    col_a = rng.integers(0, 9, n)
    col_b = rng.integers(0, 9, n)
    if negate_b:
        col_b = -col_b
    args = _swap_args(col_a, col_b, context)
    _assert_same(compiled.swap_flags(*args), REFERENCE.swap_flags(*args),
                 f"swap({name}, negate_b={negate_b})")


def test_swap_parity_all_ties(compiled):
    """Constant A within every class: no group boundaries at all."""
    context = StrippedPartition.from_ranks(np.arange(N) % 3)
    col_a = np.zeros(N, dtype=np.int64)
    col_b = np.random.default_rng(5).integers(0, 6, N)
    args = _swap_args(col_a, col_b, context)
    _assert_same(compiled.swap_flags(*args), REFERENCE.swap_flags(*args),
                 "swap(all-ties)")


def _mostly_singletons(n: int) -> np.ndarray:
    """Distinct ranks except two small classes scattered among them."""
    ranks = np.arange(n, dtype=np.int64)
    ranks[[5, n // 2, n - 3]] = 7
    ranks[[10, 20]] = 11
    return ranks


#: context shapes of the τ_A walk at a size where it matters: the walk
#: visits all n rows whatever the context, so coarse and near-empty
#: contexts are its extremes
SWAP_CONTEXTS = {
    "one-class-all-rows": np.zeros(1000, dtype=np.int64),
    # mean class ~333 rows, far above the old NumPy-routing crossover
    "few-giant-classes": np.arange(1000, dtype=np.int64) % 3,
    "mostly-singletons": _mostly_singletons(1000),
}


def _swap_columns(kind: str, n: int):
    rng = np.random.default_rng(17)
    col_a = rng.integers(0, 40, n)
    if kind == "random":
        return col_a, rng.integers(0, 40, n)
    if kind == "monotone":     # swap-free: every class walked in full
        return col_a, col_a // 3
    # a swap_desc candidate: B negated, τ_A unchanged
    return col_a, -(col_a // 3)


def _tie_shuffled_order(col_a: np.ndarray, seed: int) -> np.ndarray:
    """A τ_A whose rows within every run of equal A are permuted."""
    noise = np.random.default_rng(seed).permutation(len(col_a))
    return np.lexsort((noise, col_a))


def _scalar_flags(col_a, col_b, context) -> np.ndarray:
    offsets = context.offsets
    return np.array([
        scan_find_swap(col_a, col_b, context.rows[start:stop], "a", "b")
        is not None
        for start, stop in zip(offsets[:-1], offsets[1:])], dtype=bool)


@pytest.mark.parametrize("shape", sorted(SWAP_CONTEXTS))
@pytest.mark.parametrize("kind", ["random", "monotone", "negated"])
def test_swap_tau_walk_shapes(shape, kind, compiled):
    """Both backends match the scalar per-class scan on every shape,
    and the flags do not depend on the order within ties of τ_A."""
    context = StrippedPartition.from_ranks(SWAP_CONTEXTS[shape])
    col_a, col_b = _swap_columns(kind, context.n_rows)
    want = _scalar_flags(col_a, col_b, context)
    if kind == "monotone":
        assert not want.any()
    for order_a in (np.argsort(col_a), _tie_shuffled_order(col_a, 1),
                    _tie_shuffled_order(col_a, 2)):
        args = _swap_args(col_a, col_b, context, order_a)
        label = f"swap({shape}, {kind})"
        _assert_same(REFERENCE.swap_flags(*args), want, label)
        _assert_same(compiled.swap_flags(*args), want, label)


@pytest.mark.parametrize("name", sorted(RANKS))
def test_swap_flags_ignore_order_within_ties(name, compiled):
    context = StrippedPartition.from_ranks(RANKS[name])
    rng = np.random.default_rng(23)
    col_a = rng.integers(0, 5, context.n_rows)
    col_b = rng.integers(0, 5, context.n_rows)
    want = _scalar_flags(col_a, col_b, context)
    for seed in (3, 4):
        args = _swap_args(col_a, col_b, context,
                          _tie_shuffled_order(col_a, seed))
        _assert_same(REFERENCE.swap_flags(*args), want, f"swap({name})")
        _assert_same(compiled.swap_flags(*args), want, f"swap({name})")


class _NoCalls:
    """Stands in for the C library: any kernel call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"C kernel {name} called")


@pytest.mark.parametrize("short", ["col_a", "col_b", "order_a"])
def test_swap_rejects_unequal_lengths_before_c(short, compiled,
                                               monkeypatch):
    context = StrippedPartition.from_ranks(np.arange(20) % 4)
    arrays = {"col_a": np.arange(20), "col_b": np.arange(20),
              "order_a": np.arange(20)}
    arrays[short] = arrays[short][:-1]
    args = (arrays["col_a"], arrays["col_b"], context.rows,
            context.offsets, context.class_ids(), arrays["order_a"])
    monkeypatch.setattr(compiled, "_lib", _NoCalls())
    for backend in (compiled, REFERENCE):
        with pytest.raises(ValueError, match="one length"):
            backend.swap_flags(*args)


@pytest.mark.parametrize("name", sorted(RANKS))
@pytest.mark.parametrize("constant", [False, True])
def test_split_parity(name, constant, compiled):
    context = StrippedPartition.from_ranks(RANKS[name])
    n = context.n_rows
    column = (np.zeros(n, dtype=np.int64) if constant
              else np.random.default_rng(9).integers(0, 5, n))
    args = (column, context.rows, context.offsets, context.class_sizes)
    _assert_same(compiled.split_mismatch(*args),
                 REFERENCE.split_mismatch(*args),
                 f"split({name}, constant={constant})")


@pytest.mark.parametrize("values", [
    np.empty(0, dtype=np.int64),
    np.arange(50, dtype=np.int64),
    np.arange(50, dtype=np.int64)[::-1].copy(),
    np.repeat(np.array([4, 1, 4, 9], dtype=np.int64), 10),
    np.random.default_rng(2).integers(0, 7, 120),
    # negative ranks and a sparse value range force the compiled
    # kernel's np.unique fallback; outputs must still be identical
    np.array([-5, 3, -5, 0, 7], dtype=np.int64),
    np.array([0, 10**12, 5, 10**12], dtype=np.int64),
], ids=["empty", "ascending", "descending", "ties", "random",
        "negative", "sparse-range"])
def test_densify_parity(values, compiled):
    _assert_same(compiled.densify(values), REFERENCE.densify(values),
                 "densify")


def test_discovery_identical_across_backends(compiled):
    """End-to-end: the full FD/OCD sets of a discovery run match
    string-for-string between backends (the benchmark gates the same
    property at workers 0/2/4 on a larger instance)."""
    relation = random_relation(seed=13, n_cols=5, n_rows=400, domain=4)
    results = {}
    for backend in ("reference", "compiled"):
        result = FastOD(
            relation, FastODConfig(kernel_backend=backend)).run()
        results[backend] = (sorted(str(od) for od in result.fds),
                            sorted(str(od) for od in result.ocds))
    assert results["reference"] == results["compiled"]
