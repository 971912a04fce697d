"""Byte-identity parity suite: compiled backend vs the reference.

The reference (NumPy) backend is the semantic definition of every
kernel; the compiled (C/ctypes) backend must reproduce its output *bit
for bit* on adversarial partition shapes — empty, all-singleton
(stripped to nothing), one giant class, interleaved ties — as well as
randomized CSR layouts.  Products are batched, one lattice level per
call: a batch must equal, byte for byte, its tasks run one at a time,
and the stable rank order must equal ``np.argsort(kind="stable")``,
fallbacks included.  ``swap_desc`` candidates negate a rank
column, so swap parity is also pinned on negated inputs.  The swap
kernel's verdicts and its ``(class, row)`` stops must be identical on
both backends and equal a scalar τ_A walk; walked to the class count,
the classes that stop are the scalar per-class scan's on coarse and
near-empty contexts, and do not depend on τ_A's order within ties.
Densify parity covers the compiled kernel's sparse-range and
negative-value fallback paths.  Inputs outside the product and swap
kernels' contracts raise ``ValueError`` on both backends.

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


def _flat(partitions):
    return [(p.rows, p.offsets) for p in partitions]


@pytest.mark.parametrize("left_name,right_name", PRODUCT_PAIRS)
def test_product_parity(left_name, right_name, compiled):
    left = StrippedPartition.from_ranks(RANKS[left_name])
    right = StrippedPartition.from_ranks(RANKS[right_name])
    args = (_flat([left, right]), [(0, 1)], left.n_rows)
    _assert_same(compiled.partition_products(*args),
                 REFERENCE.partition_products(*args),
                 f"product({left_name}, {right_name})")


def _small_batch(name):
    """A 0- to 3-row RANKS shape with a constant and a key column,
    every ordered pair of the three a task."""
    ranks = RANKS[name]
    n = len(ranks)
    columns = [ranks, np.zeros(n, dtype=np.int64),
               np.arange(n, dtype=np.int64)]
    tasks = [(left, right) for left in range(3) for right in range(3)]
    return columns, tasks


def _product_batch(case):
    """``(rank columns, tasks)`` of one level-shaped product batch over
    N rows (or a 0- to 3-row relation)."""
    if case.startswith("small-"):
        return _small_batch(case[len("small-"):])
    shapes = ["random", "interleaved-ties", "two-block", "one-giant",
              "all-singleton"]
    columns = [RANKS[shape] for shape in shapes]
    # column 5 pairs rows 2i and 2i + 1, column 6 splits even rows from
    # odd ones: their product is all singletons
    columns.append(np.arange(N, dtype=np.int64) // 2)
    columns.append(np.arange(N, dtype=np.int64) % 2)
    tasks = {
        "shared-left": [(0, 1), (0, 2), (0, 3), (0, 5)],
        "shared-right": [(1, 0), (2, 0), (3, 0), (6, 0)],
        "superkey-side": [(0, 4), (4, 1), (4, 4), (2, 1)],
        "all-singleton-result": [(5, 6), (6, 5)],
        "one-class-every-row": [(3, 3)],
        "one-task": [(0, 1)],
        # left parents interleave in task order: each run refills the probe
        "interleaved-lefts": [(2, 0), (0, 1), (2, 1), (1, 0), (0, 6),
                              (2, 3)],
    }[case]
    return columns, tasks


PRODUCT_BATCHES = ["shared-left", "shared-right", "superkey-side",
                   "all-singleton-result", "one-class-every-row",
                   "one-task", "interleaved-lefts", "small-empty",
                   "small-one-row", "small-two-row-tie",
                   "small-three-row"]


@pytest.mark.parametrize("case", PRODUCT_BATCHES)
def test_product_batch_contract(case, compiled):
    """Compiled and reference batches agree byte for byte, and every
    task's slice equals that task run alone and the hashing oracle."""
    columns, tasks = _product_batch(case)
    n = len(columns[0])
    parents = [StrippedPartition.from_ranks(column) for column in columns]
    args = (_flat(parents), tasks, n)
    rows, offsets, spans = REFERENCE.partition_products(*args)
    _assert_same(compiled.partition_products(*args),
                 (rows, offsets, spans), f"products({case})")
    assert spans.shape == (len(tasks), 4)
    for (left, right), (rows_at, n_grouped, offsets_at, n_classes) in zip(
            tasks, spans.tolist()):
        got = (rows[rows_at:rows_at + n_grouped],
               offsets[offsets_at:offsets_at + n_classes + 1])
        alone, alone_offsets, _ = REFERENCE.partition_products(
            _flat([parents[left], parents[right]]), [(0, 1)], n)
        _assert_same(got, (alone, alone_offsets),
                     f"products({case}) task ({left}, {right})")
        assert n_grouped <= min(len(parents[left].rows),
                                len(parents[right].rows))
        oracle = {}
        for row in range(n):
            key = (columns[left][row], columns[right][row])
            oracle.setdefault(key, []).append(row)
        assert StrippedPartition.from_flat(*got, n).canonical_form() == \
            frozenset(frozenset(group) for group in oracle.values()
                      if len(group) >= 2)
    if case == "all-singleton-result":
        assert not len(rows)
    if case == "one-class-every-row":
        assert offsets.tolist() == [0, N]


def test_products_of_no_tasks(compiled):
    parents = _flat([StrippedPartition.from_ranks(RANKS["random"])])
    for backend in (REFERENCE, compiled):
        rows, offsets, spans = backend.partition_products(parents, [], N)
        assert not len(rows) and not len(offsets)
        assert spans.shape == (0, 4)


def _product_inputs(case):
    """Valid ``partition_products`` arguments over a 20-row relation,
    then broken as ``case`` says."""
    left = StrippedPartition.from_ranks(np.arange(20) % 4)
    right = StrippedPartition.from_ranks(np.arange(20) % 3)
    parents = [[left.rows.copy(), left.offsets.copy()],
               [right.rows.copy(), right.offsets.copy()]]
    tasks = [(0, 1), (1, 0)]
    rows, offsets = parents[1]
    if case == "row-n":
        rows[3] = 20
    elif case == "row-negative":
        parents[0][0][0] = -1
    elif case == "offsets-not-from-0":
        offsets[0] = 1
    elif case == "offsets-decrease":
        offsets[1], offsets[2] = offsets[2], offsets[1]
    elif case == "offsets-past-rows":
        offsets[-1] = len(rows) + 1
    elif case == "offsets-short-of-rows":
        offsets[-1] = len(rows) - 1
    elif case == "offsets-empty":
        parents[1][1] = offsets[:0]
    elif case == "task-past-parents":
        tasks = [(0, 1), (2, 0)]
    elif case == "task-negative":
        tasks = [(0, -1)]
    elif case == "row-twice":
        # the right parent lists row 0 four times in one class: its
        # product with a two-row class outgrows min(4, 2) rows
        parents = [[np.array([0, 1]), np.array([0, 2])],
                   [np.array([0, 0, 0, 1]), np.array([0, 4])]]
    return ([(np.asarray(r, dtype=np.int64), np.asarray(o, dtype=np.int64))
             for r, o in parents], tasks, 20)


PRODUCT_CASES = ["row-n", "row-negative", "offsets-not-from-0",
                 "offsets-decrease", "offsets-past-rows",
                 "offsets-short-of-rows", "offsets-empty",
                 "task-past-parents", "task-negative", "row-twice"]


@pytest.mark.parametrize("backend_name", ["reference", "compiled"])
@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_kernel_rejects_bad_inputs(case, backend_name):
    """A parent row outside [0, n), offsets that do not run from 0 up
    to len(rows), a task index outside [0, n_parents) or a row listed
    twice is a ``ValueError`` — in C before any write outside the
    output bounds."""
    if backend_name == "compiled" and not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    backend = kernels.resolve_backend(backend_name)
    with pytest.raises(ValueError, match="product kernel"):
        backend.partition_products(*_product_inputs(case))


def test_product_view_rejects_probe_past_n_left():
    partition = StrippedPartition.from_ranks(np.arange(20) % 4)
    probe = partition.row_to_class().copy()
    probe[0] = partition.n_classes
    with pytest.raises(ValueError, match="n_left"):
        kernels.partition_product(probe, partition.rows,
                                  partition.offsets, None,
                                  partition.n_classes)


#: rank columns of the stable rank order: the counting sort's shapes,
#: a flight-sized all-distinct column, and the two NumPy fallbacks
RANK_ORDERS = {
    "all-equal": np.zeros(1000, dtype=np.int64),
    "all-distinct": np.random.default_rng(41).permutation(150_000),
    "ties": np.random.default_rng(43).integers(0, 20, 5000),
    "sparse-wide-range": np.array([0, 10**12, 5, 10**12, 5],
                                  dtype=np.int64),
    "negative": np.array([-5, 3, -5, 0, 7, 3], dtype=np.int64),
    "zero-rows": np.empty(0, dtype=np.int64),
    "one-row": np.array([7], dtype=np.int64),
}


@pytest.mark.parametrize("name", sorted(RANK_ORDERS))
def test_rank_order_is_stable_argsort(name, compiled):
    ranks = RANK_ORDERS[name]
    want = np.argsort(ranks, kind="stable").astype(np.int64)
    for backend in (REFERENCE, compiled):
        _assert_same(backend.rank_order(ranks), want,
                     f"rank_order({name}, {backend.name})")


def _one_pair(col_a, col_b, context, order_a=None):
    """``swap_verdicts`` arguments for the one pair ``col_a ~ col_b``
    with a ``limit`` of the class count (every offending class stops);
    τ_A defaults to the argsort :meth:`EncodedRelation.order`
    computes."""
    if order_a is None:
        order_a = np.argsort(col_a)
    return ((col_a, col_b), {0: order_a}, context.rows, context.offsets,
            [0], [1], [False], max(context.n_classes, 1))


def _stopped(backend, args) -> np.ndarray:
    """Per-class flags: the classes a one-pair walk stopped in."""
    swapped, stops = backend.swap_verdicts(*args)
    flags = np.zeros(len(args[3]) - 1, dtype=bool)
    found = stops[0, :, 0]
    flags[found[found >= 0]] = True
    assert swapped[0] == flags.any()
    return flags


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
    args = _one_pair(col_a, col_b, context)
    _assert_same(compiled.swap_verdicts(*args),
                 REFERENCE.swap_verdicts(*args),
                 f"swap({name}, negate_b={negate_b})")


def test_swap_parity_all_ties(compiled):
    """Constant A within every class: no group boundaries at all."""
    context = StrippedPartition.from_ranks(np.arange(N) % 3)
    col_a = np.zeros(N, dtype=np.int64)
    col_b = np.random.default_rng(5).integers(0, 6, N)
    args = _one_pair(col_a, col_b, context)
    swapped, stops = REFERENCE.swap_verdicts(*args)
    assert not swapped.any() and (stops == -1).all()
    _assert_same(compiled.swap_verdicts(*args), (swapped, stops),
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
    """Walked to the class count, both backends stop in exactly the
    classes the scalar per-class scan flags, on every shape and
    whatever τ_A's order within ties; so does the dispatcher's
    per-class ``swap_flags`` view."""
    context = StrippedPartition.from_ranks(SWAP_CONTEXTS[shape])
    col_a, col_b = _swap_columns(kind, context.n_rows)
    want = _scalar_flags(col_a, col_b, context)
    if kind == "monotone":
        assert not want.any()
    for order_a in (np.argsort(col_a), _tie_shuffled_order(col_a, 1),
                    _tie_shuffled_order(col_a, 2)):
        args = _one_pair(col_a, col_b, context, order_a)
        label = f"swap({shape}, {kind})"
        _assert_same(_stopped(REFERENCE, args), want, label)
        _assert_same(_stopped(compiled, args), want, label)
        _assert_same(compiled.swap_verdicts(*args),
                     REFERENCE.swap_verdicts(*args), label)
        for backend in (REFERENCE, compiled):
            with kernels.activate(backend):
                _assert_same(kernels.swap_flags(
                    col_a, col_b, context.rows, context.offsets,
                    context.class_ids(), order_a), want, label)


@pytest.mark.parametrize("name", sorted(RANKS))
def test_swap_flags_ignore_order_within_ties(name, compiled):
    """The classes a walk to the class count stops in (the per-class
    swap flags) do not depend on τ_A's order within ties."""
    context = StrippedPartition.from_ranks(RANKS[name])
    rng = np.random.default_rng(23)
    col_a = rng.integers(0, 5, context.n_rows)
    col_b = rng.integers(0, 5, context.n_rows)
    want = _scalar_flags(col_a, col_b, context)
    for seed in (3, 4):
        args = _one_pair(col_a, col_b, context,
                         _tie_shuffled_order(col_a, seed))
        _assert_same(_stopped(REFERENCE, args), want, f"swap({name})")
        _assert_same(_stopped(compiled, args), want, f"swap({name})")


def _walk_stops(col_a, col_b, order_a, context, limit):
    """The scalar τ_A walk (Section 4.6), row by row: per class the
    current A, that A group's largest B and the largest B of earlier
    groups; a class stops at its first B below the last, and the walk
    ends after ``limit`` stops."""
    class_of = dict(zip(context.rows.tolist(),
                        context.class_ids().tolist()))
    state, stops = {}, []
    for row in order_a.tolist():
        if len(stops) == limit:
            break
        c = class_of.get(row)
        if c is None or c in {stop[0] for stop in stops}:
            continue
        a, b = int(col_a[row]), int(col_b[row])
        current, group_max, before_max = state.get(c, (None, None, None))
        if a != current:
            if group_max is not None and (before_max is None
                                          or group_max > before_max):
                before_max = group_max
            current, group_max = a, b
        else:
            group_max = max(group_max, b)
        state[c] = (current, group_max, before_max)
        if before_max is not None and b < before_max:
            stops.append((c, row))
    return stops


#: (context ranks, A, B) of the stop oracle: ties inside A groups,
#: the empty context (Π_{}: one class of every row), a superkey
#: context (no class), 0- and 1-row relations
STOP_CASES = {
    "ties-in-a-groups": (np.arange(60) % 4, np.arange(60) // 10 % 3,
                         np.random.default_rng(37).integers(0, 5, 60)),
    "empty-context": (np.zeros(40, dtype=np.int64),
                  np.random.default_rng(38).integers(0, 6, 40),
                  np.random.default_rng(39).integers(0, 6, 40)),
    "many-classes": (np.arange(90) % 15,
                     np.random.default_rng(40).integers(0, 4, 90),
                     np.random.default_rng(41).integers(0, 4, 90)),
    "superkey": (np.arange(30), np.arange(30), np.arange(30)[::-1]),
    "empty-relation": (np.empty(0, dtype=np.int64),) * 3,
    "one-row": (np.zeros(1, dtype=np.int64),) * 3,
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("limit", [1, 3, 1000])
@pytest.mark.parametrize("tau", ["argsort", "shuffled-ties"])
def test_swap_stops_match_the_walk_oracle(case, negate, limit, tau,
                                          compiled):
    """Both backends return identical bits and stops, equal to the
    scalar walk's first ``limit`` stops in τ_A order (``1000`` is
    above every case's class count)."""
    ranks, col_a, col_b = (np.asarray(v, dtype=np.int64)
                           for v in STOP_CASES[case])
    context = StrippedPartition.from_ranks(ranks)
    order_a = (np.argsort(col_a) if tau == "argsort"
               else _tie_shuffled_order(col_a, 43))
    args = ((col_a, col_b), {0: order_a}, context.rows, context.offsets,
            [0], [1], [negate], limit)
    swapped, stops = REFERENCE.swap_verdicts(*args)
    want = _walk_stops(col_a, ~col_b if negate else col_b, order_a,
                       context, limit)
    assert stops.shape == (1, min(limit, context.n_classes), 2)
    assert [tuple(stop) for stop in stops[0].tolist()
            if stop[0] >= 0] == want
    assert bool(swapped[0]) == bool(want)
    if case in ("superkey", "empty-relation", "one-row"):
        assert not want
    _assert_same(compiled.swap_verdicts(*args), (swapped, stops),
                 f"stops({case}, negate={negate}, limit={limit})")


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
    args = _one_pair(arrays["col_a"], arrays["col_b"], context,
                     arrays["order_a"])
    monkeypatch.setattr(compiled, "_lib", _NoCalls())
    for backend in (compiled, REFERENCE):
        with pytest.raises(ValueError, match="one length|length 20"):
            backend.swap_verdicts(*args)


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
    """Compiled and reference agree on the bits and stops of every
    pair of one batched call, each pair's bit equals the scalar
    per-class scan and that pair's own one-pair call, and one pair's
    stop does not end the others."""
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
    swapped, stops = REFERENCE.swap_verdicts(*args)
    want = []
    for p, (a, b, neg) in enumerate(VERDICT_PAIRS):
        col_b = -columns[b] if neg else columns[b]
        scalar = _scalar_flags(columns[a], col_b, context).any()
        alone = REFERENCE.swap_verdicts(
            (columns[a], columns[b]), {0: orders[a]}, context.rows,
            context.offsets, [0], [1], [neg])
        _assert_same(alone, (swapped[p:p + 1], stops[p:p + 1]),
                     f"pair {p} alone")
        want.append(scalar)
    want = np.array(want, dtype=bool)
    if shape == "empty":
        assert not want.any()
    else:
        # the first-class failure sits between pairs that hold
        assert want[:4].tolist() == [False, True, False, False]
    label = f"swap_verdicts({shape}, {tau})"
    _assert_same(swapped, want, label)
    assert (stops[:, :1, 0] >= 0).any(axis=1).tolist() == want.tolist()
    _assert_same(compiled.swap_verdicts(*args), (swapped, stops), label)


def test_swap_verdicts_no_pairs(compiled):
    context = StrippedPartition.from_ranks(np.arange(10) % 2)
    columns = [np.arange(10)]
    for backend in (REFERENCE, compiled):
        got = backend.swap_verdicts(columns, {}, context.rows,
                                    context.offsets, [], [], [], 3)
        _assert_same(got, (np.zeros(0, dtype=bool),
                           np.zeros((0, 2, 2), dtype=np.int64)),
                     "no pairs")


def _swap_inputs(case: str) -> tuple:
    """Valid ``swap_verdicts`` arguments over a 20-row relation, then
    broken as ``case`` says."""
    context = StrippedPartition.from_ranks(np.arange(20) % 4)
    columns = [np.arange(20) % 5, np.arange(20) % 3]
    orders = {0: np.argsort(columns[0]), 1: np.argsort(columns[1])}
    rows, offsets = context.rows.copy(), context.offsets.copy()
    pair_a, pair_b, negate, limit = [0, 1], [1, 0], [False, True], 2
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
    elif case == "limit-zero":
        limit = 0
    return (columns, orders, rows, offsets, pair_a, pair_b, negate,
            limit)


#: broken contexts, broken pairs and a limit below 1
SWAP_CASES = ["row-n", "row-negative", "offsets-not-from-0",
              "offsets-decrease", "offsets-past-rows",
              "offsets-short-of-rows", "offsets-empty", "tau-row-n",
              "pair-a-arity", "pair-b-negative", "pair-lengths",
              "negate-length", "column-lengths", "order-length",
              "order-missing", "limit-zero"]


@pytest.mark.parametrize("backend_name", ["reference", "compiled"])
@pytest.mark.parametrize("case", SWAP_CASES)
def test_swap_kernels_reject_bad_inputs(case, backend_name):
    """A row outside [0, n), offsets that do not run from 0 up to
    len(rows), a pair index outside [0, arity), unequal lengths or a
    limit below 1 is a ``ValueError`` — in C before any write outside
    the scratch table and the stops."""
    if backend_name == "compiled" and not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    backend = kernels.resolve_backend(backend_name)
    with pytest.raises(ValueError):
        backend.swap_verdicts(*_swap_inputs(case))


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
