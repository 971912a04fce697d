"""Byte-identity parity suite: compiled backend vs the reference.

The reference (NumPy) backend is the semantic definition of every
kernel; the compiled (C/ctypes) backend must reproduce its output *bit
for bit* on adversarial partition shapes — empty, all-singleton
(stripped to nothing), one giant class, interleaved ties — as well as
randomized CSR layouts.  ``swap_desc`` candidates negate a rank
column, so swap parity is also pinned on negated inputs; swap flags
are also pinned to the scalar per-class scan on coarse and near-empty
contexts and must not depend on τ_A's order within ties; batched swap
verdicts must equal ``any(swap_flags)`` and the scalar scan per pair;
and densify parity covers the compiled kernel's sparse-range and
negative-value fallback paths.  Inputs outside the swap kernels'
contract raise ``ValueError`` on both backends.

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


#: context shapes of the batched verdict call (n = 300 rows)
VERDICT_CONTEXTS = {
    "one-class-all-rows": np.zeros(300, dtype=np.int64),
    "few-classes": np.arange(300, dtype=np.int64) % 3,
    "random-classes": np.random.default_rng(29).integers(0, 40, 300),
    "mostly-singletons": _mostly_singletons(300),
    "empty": np.arange(300, dtype=np.int64),
}


def _verdict_columns(context: StrippedPartition) -> list:
    """Rank columns over which the context's pairs mix holding and
    failing verdicts: c1 rises with c0, c2 falls with it (a
    ``swap_desc`` pair holds), c3 is noise, c4 is c1 with one swap in
    the context's first class, c5 has ties on c0's groups."""
    n = context.n_rows
    rng = np.random.default_rng(31)
    c0 = rng.integers(0, 30, n)
    if context.n_classes:
        low, high = context.rows[:2]       # two rows of the first class
        c0[low], c0[high] = 0, 29
    c1 = c0 // 3
    c2 = 100 - c0 // 2
    c3 = rng.integers(0, 30, n)
    c4 = c1.copy()
    if context.n_classes:
        c4[low] = 1000             # smallest A, largest B: a swap
    c5 = c0 % 4
    return [c0, c1, c2, c3, c4, c5]


#: (a, b, negate): many pairs share A = 0, swap and swap_desc mix, and
#: (0, 4) fails in the first class between pairs that hold
VERDICT_PAIRS = [(0, 1, False), (0, 4, False), (0, 2, True),
                 (0, 1, False), (0, 3, False), (0, 2, False),
                 (0, 5, True), (0, 1, True), (1, 0, False), (2, 0, True),
                 (3, 5, False), (5, 3, True), (4, 1, False)]


@pytest.mark.parametrize("shape", sorted(VERDICT_CONTEXTS))
@pytest.mark.parametrize("tau", ["argsort", "shuffled-ties"])
def test_swap_verdicts_contract(shape, tau, compiled):
    """Compiled, reference, ``any(swap_flags)`` per pair and the scalar
    per-class scan agree on every pair of one batched call."""
    context = StrippedPartition.from_ranks(VERDICT_CONTEXTS[shape])
    columns = _verdict_columns(context)
    if tau == "argsort":
        orders = {a: np.argsort(col) for a, col in enumerate(columns)}
    else:
        orders = {a: _tie_shuffled_order(col, 5 + a)
                  for a, col in enumerate(columns)}
    pair_a, pair_b, negate = (list(v) for v in zip(*VERDICT_PAIRS))
    args = (columns, orders, context.rows, context.offsets, pair_a,
            pair_b, negate)
    want = []
    for a, b, neg in VERDICT_PAIRS:
        col_b = -columns[b] if neg else columns[b]
        scalar = _scalar_flags(columns[a], col_b, context).any()
        flag_args = _swap_args(columns[a], col_b, context, orders[a])
        for backend in (REFERENCE, compiled):
            assert backend.swap_flags(*flag_args).any() == scalar
        want.append(scalar)
    want = np.array(want, dtype=bool)
    if shape == "empty":
        assert not want.any()
    else:
        # the first-class failure sits between pairs that hold
        assert want[:4].tolist() == [False, True, False, False]
    label = f"swap_verdicts({shape}, {tau})"
    _assert_same(REFERENCE.swap_verdicts(*args), want, label)
    _assert_same(compiled.swap_verdicts(*args), want, label)


def test_swap_verdicts_no_pairs(compiled):
    context = StrippedPartition.from_ranks(np.arange(10) % 2)
    columns = [np.arange(10)]
    for backend in (REFERENCE, compiled):
        got = backend.swap_verdicts(columns, {}, context.rows,
                                    context.offsets, [], [], [])
        _assert_same(got, np.zeros(0, dtype=bool), "no pairs")


def _swap_inputs(case: str) -> tuple:
    """Valid inputs for both swap entry points over a 20-row relation,
    then broken as ``case`` says: ``(flags_args, verdicts_args)``;
    ``flags_args`` is ``None`` where the case has no pairs to break in
    ``swap_flags``."""
    context = StrippedPartition.from_ranks(np.arange(20) % 4)
    columns = [np.arange(20) % 5, np.arange(20) % 3]
    orders = {0: np.argsort(columns[0]), 1: np.argsort(columns[1])}
    rows, offsets = context.rows.copy(), context.offsets.copy()
    pair_a, pair_b, negate = [0, 1], [1, 0], [False, True]
    if case == "row-n":
        rows[3] = 20
    elif case == "row-negative":
        rows[0] = -1
    elif case == "offsets-not-from-0":
        offsets[0] = 1
    elif case == "offsets-decrease":
        offsets[1], offsets[2] = offsets[2], offsets[1]
    elif case == "offsets-past-rows":
        offsets[-1] = len(rows) + 1
    elif case == "offsets-short-of-rows":
        offsets[-1] = len(rows) - 1
    elif case == "offsets-empty":
        offsets = offsets[:0]
    elif case == "tau-row-n":           # the walk's first step
        orders[0] = orders[0].copy()
        orders[0][0] = 20
    elif case == "pair-a-arity":
        pair_a = [0, 2]
    elif case == "pair-b-negative":
        pair_b = [1, -1]
    elif case == "pair-lengths":
        pair_b = [1]
    elif case == "negate-length":
        negate = [False]
    elif case == "column-lengths":
        columns[1] = columns[1][:-1]
    elif case == "order-length":
        orders[1] = orders[1][:-1]
    elif case == "order-missing":
        del orders[1]
    verdicts_args = (columns, orders, rows, offsets, pair_a, pair_b,
                     negate)
    flags_args = None
    if case in CONTEXT_CASES:
        flags_args = (columns[0], columns[1], rows, offsets,
                      context.class_ids(), orders[0])
    return flags_args, verdicts_args


#: broken contexts (both entry points) and broken pairs (the batched one)
CONTEXT_CASES = ["row-n", "row-negative", "offsets-not-from-0",
                 "offsets-decrease", "offsets-past-rows",
                 "offsets-short-of-rows", "offsets-empty", "tau-row-n"]
PAIR_CASES = ["pair-a-arity", "pair-b-negative", "pair-lengths",
              "negate-length", "column-lengths", "order-length",
              "order-missing"]


@pytest.mark.parametrize("backend_name", ["reference", "compiled"])
@pytest.mark.parametrize("case", CONTEXT_CASES + PAIR_CASES)
def test_swap_kernels_reject_bad_inputs(case, backend_name):
    """A row outside [0, n), offsets that do not run from 0 up to
    len(rows), a pair index outside [0, arity) or unequal lengths is a
    ``ValueError`` on both entry points — in C before any write
    outside the scratch table."""
    if backend_name == "compiled" and not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    backend = kernels.resolve_backend(backend_name)
    flags_args, verdicts_args = _swap_inputs(case)
    with pytest.raises(ValueError):
        backend.swap_verdicts(*verdicts_args)
    if flags_args is not None:
        with pytest.raises(ValueError):
            backend.swap_flags(*flags_args)


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
