"""WorkerPool lifecycle: startup, rebase, crashes, and — above all —
never leaking a shared-memory segment, whatever kills the pool."""

from __future__ import annotations

import multiprocessing.shared_memory as shared_memory

import numpy as np
import pytest

from repro.core.validation import (
    is_compatible_in_classes,
    is_constant_in_classes,
)
from repro.datasets import make_dataset
from repro.parallel.pool import WorkerCrashError, WorkerPool
from repro.parallel.shm import SharedArrayBlock, attach
from repro.partitions.partition import StrippedPartition


@pytest.fixture()
def encoded():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=6).encode()


def live_block_names(pool: WorkerPool):
    return set(pool._live_blocks)


def assert_all_unlinked(names) -> None:
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def singleton_partitions(encoded):
    return {1 << a: StrippedPartition.for_attribute(encoded, a)
            for a in range(encoded.arity)}


class TestSharedArrayBlock:
    def test_publish_round_trips(self):
        arrays = {"a": np.arange(10, dtype=np.int64),
                  "b": np.array([], dtype=np.int64),
                  ("c", 1): np.array([7, 7, 7], dtype=np.int64)}
        block = SharedArrayBlock.publish(arrays)
        try:
            reader = attach(block.name)
            for key, expected in arrays.items():
                offset, length = block.layout[key]
                view = np.frombuffer(reader.buf, dtype=np.int64,
                                     offset=offset * 8, count=length)
                assert np.array_equal(view, expected)
                del view               # release before closing the map
            reader.close()
        finally:
            block.close_and_unlink()
        assert_all_unlinked([block.name])

    def test_unlink_is_idempotent(self):
        block = SharedArrayBlock.publish(
            {"x": np.arange(4, dtype=np.int64)})
        block.close_and_unlink()
        block.close_and_unlink()


class TestPoolOperations:
    def test_products_match_serial(self, encoded):
        parents = singleton_partitions(encoded)
        triples = [((1 << a) | (1 << b), 1 << a, 1 << b)
                   for a in range(encoded.arity)
                   for b in range(a + 1, encoded.arity)]
        with WorkerPool(encoded, 2) as pool:
            products, timed_out = pool.run_products(parents, triples)
            assert not timed_out
            for child, left, right in triples:
                serial = parents[left].product(parents[right])
                assert np.array_equal(serial.rows, products[child].rows)
                assert np.array_equal(serial.offsets,
                                      products[child].offsets)
                # the result carries a live shared replica pointer
                assert products[child]._shm_ref is not None

    def test_scans_match_serial(self, encoded):
        parents = singleton_partitions(encoded)
        tasks = [((a, b), 1 << a, "swap", a, b)
                 for a in range(encoded.arity)
                 for b in range(encoded.arity) if a != b]
        with WorkerPool(encoded, 2) as pool:
            verdicts, timed_out = pool.run_scans(parents, tasks)
        assert not timed_out
        for (a, b), verdict in verdicts.items():
            expected = is_compatible_in_classes(
                encoded.column(a), encoded.column(b), parents[1 << a])
            assert verdict == expected

    def test_class_scan_matches_serial(self, encoded):
        context = StrippedPartition.for_attribute(encoded, 0)
        with WorkerPool(encoded, 2) as pool:
            for mode, a, b in (("swap", 1, 2), ("const", 3, 0)):
                verdict, timed_out = pool.run_class_scan(
                    mode, a, b, context)
                if mode == "swap":
                    expected = is_compatible_in_classes(
                        encoded.column(a), encoded.column(b), context)
                else:
                    expected = is_constant_in_classes(
                        encoded.column(a), context)
                assert not timed_out
                assert verdict == expected

    def test_validations_match_serial(self, encoded):
        from repro.partitions.cache import PartitionCache

        cache = PartitionCache(encoded)
        tasks = [((mask, a, b), mask, "swap", a, b)
                 for mask in (1, 2, 3, 6)
                 for a, b in ((3, 4),)]
        with WorkerPool(encoded, 2) as pool:
            verdicts, _ = pool.run_validations(tasks)
        for (mask, a, b), verdict in verdicts.items():
            assert verdict == is_compatible_in_classes(
                encoded.column(a), encoded.column(b), cache.get(mask))

    def test_rebase_republishes_columns(self, encoded):
        bigger = make_dataset("flight", n_rows=450, n_attrs=5,
                              seed=7).encode()
        with WorkerPool(encoded, 2) as pool:
            parents = singleton_partitions(encoded)
            pool.run_scans(parents, [((0,), 1, "swap", 0, 1)])
            pool.rebase(bigger)
            assert pool.relation is bigger
            parents = singleton_partitions(bigger)
            verdicts, _ = pool.run_scans(
                parents, [((0,), 1, "swap", 0, 1)])
            assert verdicts[(0,)] == is_compatible_in_classes(
                bigger.column(0), bigger.column(1), parents[1])


class TestShutdownHygiene:
    def test_shutdown_unlinks_every_segment(self, encoded):
        pool = WorkerPool(encoded, 2)
        parents = singleton_partitions(encoded)
        triples = [(3, 1, 2), (5, 1, 4)]
        pool.run_products(parents, triples)
        names = live_block_names(pool)
        assert names                      # columns + retained partitions
        pool.shutdown()
        assert_all_unlinked(names)
        assert not pool._processes

    def test_shutdown_is_idempotent(self, encoded):
        pool = WorkerPool(encoded, 2)
        pool.shutdown()
        pool.shutdown()

    def test_keyboard_interrupt_in_with_block_cleans_up(self, encoded):
        names = set()
        with pytest.raises(KeyboardInterrupt):
            with WorkerPool(encoded, 2) as pool:
                pool.run_scans(singleton_partitions(encoded),
                               [((0,), 1, "swap", 0, 1)])
                names = live_block_names(pool)
                raise KeyboardInterrupt()
        assert names
        assert_all_unlinked(names)

    def test_worker_crash_raises_and_cleans_up(self, encoded):
        pool = WorkerPool(encoded, 2)
        parents = singleton_partitions(encoded)
        # warm the pool so worker processes exist
        pool.run_scans(parents, [((0,), 1, "swap", 0, 1)])
        names = live_block_names(pool)
        pool._processes[0].terminate()
        pool._processes[0].join()
        with pytest.raises(WorkerCrashError):
            # enough chunks that the dead worker's share goes missing
            pool.run_scans(parents, [((a, b), 1 << a, "swap", a, b)
                                     for a in range(5)
                                     for b in range(5) if a != b])
        assert_all_unlinked(names | live_block_names(pool))
        assert not pool._processes
        assert pool.closed
        # a crashed pool must refuse to restart rather than resolve
        # refs against unlinked segments
        with pytest.raises(WorkerCrashError):
            pool.run_scans(parents, [((0,), 1, "swap", 0, 1)])

    def test_scan_partition_recovers_from_crash(self, encoded):
        """Crash recovery lives in the engine's PoolExecutor: every
        scan_partition consumer must rebuild a pool whose workers died
        mid-session."""
        from repro.engine.executors import make_executor

        executor = make_executor(encoded, workers=2, min_grouped_rows=0)
        # a context with at least two stripped classes, so the gate
        # actually routes through the pool
        context = next(
            p for p in (StrippedPartition.for_attribute(encoded, a)
                        for a in range(encoded.arity))
            if p.n_classes >= 2)
        expected = is_compatible_in_classes(
            encoded.column(1), encoded.column(2), context)
        try:
            assert executor.scan_partition("swap", 1, 2,
                                           context) == expected
            executor._owned.shutdown()      # simulate a crash teardown
            # next scan must rebuild the pool, not die on stale state
            assert executor.scan_partition("swap", 1, 2,
                                           context) == expected
            assert not executor._owned.closed
        finally:
            executor.close()

    def test_worker_task_error_propagates_traceback(self, encoded):
        from repro.parallel.pool import WorkerTaskError

        pool = WorkerPool(encoded, 2)
        parents = singleton_partitions(encoded)
        names = live_block_names(pool)
        with pytest.raises(WorkerTaskError):
            # column index out of range explodes inside the worker
            pool.run_scans(parents, [((0,), 1, "swap", 0, 99)])
        assert_all_unlinked(names | live_block_names(pool))

    def test_finalizer_cleans_up_unclosed_pool(self, encoded):
        import gc

        pool = WorkerPool(encoded, 2)
        pool.run_scans(singleton_partitions(encoded),
                       [((0,), 1, "swap", 0, 1)])
        names = live_block_names(pool)
        del pool
        gc.collect()
        assert_all_unlinked(names)
