"""The kernel layer under concurrent callers.

The thread pool runs kernel calls side by side: the compiled backend's
ctypes calls and the reference backend's NumPy sorts release the GIL,
so two shares really are inside the kernels at once.  Several threads
here call ``swap_verdicts``, ``partition_products``, ``rank_order`` and
``densify`` on fresh arrays — enough of them that the compiled
backend's address cache (``compiled._ADDRESSES``) passes its clear
threshold — with a garbage collection between calls (a full one every
16th call), so freed arrays' ids get reused.  Every output must equal
the reference backend's single-thread output.  Concurrent
``EncodedRelation.order`` calls must settle on one cached array.
"""

from __future__ import annotations

import gc
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import kernels
from repro.kernels.reference import ReferenceBackend
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation

REFERENCE = ReferenceBackend()
THREADS = 4
#: calls per kernel; each swap call registers 3 columns and 2 orders
#: in the address cache, so the cache passes its 512-entry clear
CALLS = 160
N_ROWS = 400


def backends():
    names = ["reference"]
    if kernels.compiled_available():
        names.append("compiled")
    return names


def inputs(seed: int):
    """Fresh arrays for one call of every kernel."""
    rng = np.random.default_rng(seed)
    columns = [rng.integers(0, domain, N_ROWS).astype(np.int64)
               for domain in (7, 13, 40)]
    orders = {a: np.argsort(columns[a], kind="stable") for a in (0, 1)}
    context = StrippedPartition.from_ranks(
        rng.integers(0, 9, N_ROWS).astype(np.int64))
    parents = [(p.rows.copy(), p.offsets.copy()) for p in (
        StrippedPartition.from_ranks(column) for column in columns)]
    values = rng.integers(-3, 10 ** 6, N_ROWS).astype(np.int64)
    return columns, orders, context, parents, values


def collect(seed: int) -> None:
    # a full collection costs tens of milliseconds in a big test
    # session; the young generation holds every array freed here
    gc.collect(2 if seed % 16 == 0 else 0)


def run_all(seed: int):
    columns, orders, context, parents, values = inputs(seed)
    swapped, stops = kernels.swap_verdicts(
        columns, orders, context.rows.copy(), context.offsets.copy(),
        [0, 1, 0, 1], [1, 2, 2, 0], [False, True, False, False], 3)
    collect(seed)
    rows, offsets, spans = kernels.partition_products(
        parents, [(0, 1), (0, 2), (1, 2), (2, 0)], N_ROWS)
    collect(seed)
    order = kernels.rank_order(columns[2].copy())
    collect(seed)
    survivors, dense = kernels.densify(values)
    collect(seed)
    return (swapped.tolist(), stops.tolist(), rows.tolist(),
            offsets.tolist(),
            spans.tolist(), order.tolist(), survivors.tolist(),
            dense.tolist())


def expected(seed: int):
    with kernels.activate(REFERENCE):
        return run_all(seed)


@pytest.mark.parametrize("backend", backends())
def test_concurrent_calls_match_the_reference(backend):
    from repro.kernels import compiled

    compiled._ADDRESSES.clear()
    seeds = list(range(CALLS))
    oracle = {seed: expected(seed) for seed in seeds}

    def call(seed):
        with kernels.activate(backend):
            return seed, run_all(seed)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(call, seeds))
    assert len(results) == CALLS
    for seed, got in results:
        assert got == oracle[seed], f"seed {seed} diverged"


@pytest.mark.parametrize("backend", backends())
def test_concurrent_orders_settle_on_one_array(backend):
    rng = np.random.default_rng(5)
    relation = EncodedRelation(
        ("a", "b"), [rng.integers(0, 50, 20000).astype(np.int64),
                     rng.integers(0, 50, 20000).astype(np.int64)])
    barrier = threading.Barrier(THREADS)

    def order(_):
        with kernels.activate(backend):
            barrier.wait()
            return relation.order(1)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        got = list(pool.map(order, range(THREADS)))
    assert all(array is got[0] for array in got)
    assert relation.order(1) is got[0]
    assert np.array_equal(got[0], np.argsort(relation.ranks[1],
                                             kind="stable"))
