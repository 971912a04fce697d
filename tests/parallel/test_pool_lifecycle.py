"""WorkerPool lifecycle and the thread path: batches split into shares
agree with the serial kernels, threads start and end with the pool, a
failing share fails its batch without hanging it, and a deadline stops
a split scan batch at its next context."""

from __future__ import annotations

import gc
import multiprocessing
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.parallel.pool as pool_module
from repro.core.fastod import FastOD, FastODConfig
from repro.core.validation import is_compatible_in_classes
from repro.datasets import make_dataset
from repro.engine import DeadlineBudget, PoolExecutor
from repro.parallel.pool import WorkerPool, deal
from repro.partitions.partition import StrippedPartition


@pytest.fixture()
def encoded():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=6).encode()


def singleton_partitions(encoded):
    return {1 << a: StrippedPartition.for_attribute(encoded, a)
            for a in range(encoded.arity)}


def all_pairs(encoded):
    return [((a, b), 1 << a, "swap", a, b)
            for a in range(encoded.arity)
            for b in range(encoded.arity) if a != b]


def pool_threads(pool: WorkerPool):
    return [t for t in threading.enumerate()
            if t in pool._threads._threads]


def repro_worker_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-worker")]


def shm_segments():
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


class TestPoolOperations:
    def test_products_match_serial(self, encoded):
        parents = singleton_partitions(encoded)
        triples = [((1 << a) | (1 << b), 1 << a, 1 << b)
                   for a in range(encoded.arity)
                   for b in range(a + 1, encoded.arity)]
        with WorkerPool(encoded, 2) as pool:
            products, timed_out = pool.run_products(parents, triples)
            assert not timed_out
            assert list(products) == [child for child, _, _ in triples]
            for child, left, right in triples:
                serial = parents[left].product(parents[right])
                assert np.array_equal(serial.rows, products[child].rows)
                assert np.array_equal(serial.offsets,
                                      products[child].offsets)
            # one share per thread, each one level_products call
            assert pool.dispatches[-1]["kind"] == "products"
            assert pool.dispatches[-1]["n_shares"] == 2

    def test_scans_match_serial(self, encoded):
        parents = singleton_partitions(encoded)
        tasks = all_pairs(encoded)
        with WorkerPool(encoded, 2) as pool:
            verdicts, timed_out = pool.run_scans(parents, tasks)
        assert not timed_out
        assert set(verdicts) == {task[0] for task in tasks}
        for (a, b), verdict in verdicts.items():
            expected = is_compatible_in_classes(
                encoded.column(a), encoded.column(b), parents[1 << a])
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

    def test_rebase_follows_relation(self, encoded):
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

    def test_swap_tasks_of_one_context_share_one_share(self, encoded):
        parents = singleton_partitions(encoded)
        tasks = all_pairs(encoded)
        seen = []
        original = pool_module.WorkerPool._run

        def spy(self, kind, n_tasks, shares):
            seen.extend(size for size, _ in shares)
            return original(self, kind, n_tasks, shares)

        with WorkerPool(encoded, 3) as pool:
            pool._run = spy.__get__(pool)
            pool.run_scans(parents, tasks)
        # 5 contexts of 4 pairs each, dealt whole into 3 shares
        assert sorted(seen) == [4, 8, 8]

    def test_deal_balances_heaviest_first(self):
        assert deal([5, 1, 4, 2], 2) == [[0, 1], [2, 3]]
        assert deal([3], 4) == [[0]]
        assert deal([], 2) == []


class TestShutdownHygiene:
    def test_shutdown_joins_every_thread(self, encoded):
        pool = WorkerPool(encoded, 2)
        pool.run_scans(singleton_partitions(encoded), all_pairs(encoded))
        threads = pool_threads(pool)
        assert threads
        pool.shutdown()
        assert not any(thread.is_alive() for thread in threads)

    def test_two_pools_each_own_their_threads(self, encoded):
        parents = singleton_partitions(encoded)
        task = [((0,), 1, "swap", 0, 1)]
        pool_a = WorkerPool(encoded, 2)
        pool_b = WorkerPool(encoded, 2)
        try:
            expected, _ = pool_a.run_scans(parents, task)
            pool_b.run_scans(parents, task)
            threads_b = pool_threads(pool_b)
            pool_b.shutdown()
            assert not any(thread.is_alive() for thread in threads_b)
            # pool_a keeps serving after its sibling's teardown
            verdicts, _ = pool_a.run_scans(parents, task)
            assert verdicts == expected
        finally:
            pool_b.shutdown()
            pool_a.shutdown()

    def test_shutdown_is_idempotent(self, encoded):
        pool = WorkerPool(encoded, 2)
        pool.shutdown()
        pool.shutdown()

    def test_keyboard_interrupt_in_with_block_cleans_up(self, encoded):
        threads = []
        with pytest.raises(KeyboardInterrupt):
            with WorkerPool(encoded, 2) as pool:
                pool.run_scans(singleton_partitions(encoded),
                               all_pairs(encoded))
                threads = pool_threads(pool)
                raise KeyboardInterrupt()
        assert threads
        assert not any(thread.is_alive() for thread in threads)

    def test_share_error_leaves_pool_usable(self, encoded):
        parents = singleton_partitions(encoded)
        with WorkerPool(encoded, 2) as pool:
            with pytest.raises(ValueError):
                pool.run_scans(parents, [((0,), 1, "swap", 0, 99),
                                         ((1,), 2, "swap", 1, 0)])
            verdicts, _ = pool.run_scans(parents,
                                         [((0,), 1, "swap", 0, 1)])
        assert verdicts[(0,)] == is_compatible_in_classes(
            encoded.column(0), encoded.column(1), parents[1])

    def test_worker_task_error_propagates_traceback(self, encoded):
        pool = WorkerPool(encoded, 2)
        parents = singleton_partitions(encoded)
        try:
            with pytest.raises(ValueError) as caught:
                # a column index out of range fails the kernel's
                # contract check inside a share
                pool.run_scans(parents, [((0,), 1, "swap", 0, 99)])
        finally:
            pool.shutdown()
        frames = [entry.name for entry in caught.traceback]
        assert "scan_verdicts" in frames

    def test_finalizer_cleans_up_unclosed_pool(self, encoded):
        pool = WorkerPool(encoded, 2)
        pool.run_scans(singleton_partitions(encoded), all_pairs(encoded))
        threads = pool_threads(pool)
        assert threads
        del pool
        gc.collect()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)


class TestThreadPath:
    """What a ``workers=2`` discovery does (and no longer does)."""

    @pytest.fixture(scope="class")
    def relation(self):
        return make_dataset("flight", n_rows=400, n_attrs=6, seed=11)

    def test_no_processes_and_no_segments(self, relation):
        before = shm_segments()
        threads = set(repro_worker_threads())
        result = FastOD(relation, FastODConfig(
            workers=2, parallel_min_grouped_rows=0)).run()
        assert result.executor_stats["backend"] == "pool"
        assert multiprocessing.active_children() == []
        assert shm_segments() == before
        # the run's owned pool is joined with the run
        assert set(repro_worker_threads()) <= threads

    def test_value_error_in_one_share_fails_the_discovery(
            self, relation, monkeypatch):
        import repro.core.validation as validation

        original = validation.scan_verdicts
        calls = []

        def flaky(relation, tasks, context_of, expired):
            calls.append(threading.current_thread().name)
            if len(calls) == 2:
                raise ValueError("injected share failure")
            return original(relation, tasks, context_of, expired)

        monkeypatch.setattr(validation, "scan_verdicts", flaky)
        before = set(repro_worker_threads())
        outcome = {}

        def discover():
            try:
                FastOD(relation, FastODConfig(
                    workers=2, parallel_min_grouped_rows=0)).run()
            except ValueError as error:
                outcome["error"] = error

        runner = threading.Thread(target=discover, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "a failing share hung the run"
        assert "injected share failure" in str(outcome.get("error"))
        assert calls[1].startswith("repro-worker")
        assert set(repro_worker_threads()) <= before

    def test_deadline_inside_a_split_scan_batch(self, relation):
        encoded = relation.encode()
        contexts = singleton_partitions(encoded)
        tasks = all_pairs(encoded)
        seen = []

        class Expiring(DeadlineBudget):
            def hit(self):
                # the budget runs out while the shares are scanning:
                # two contexts get scanned, then every share stops
                seen.append(threading.current_thread().name)
                return len(seen) > 2

        budget = Expiring()
        with PoolExecutor(encoded, 2, min_grouped_rows=0) as executor:
            verdicts, timed_out = executor.run_scans(contexts, tasks,
                                                     budget)
        assert timed_out
        assert 0 < len(verdicts) < len(tasks)
        by_context = {}
        for key, context_key, _, a, b in tasks:
            by_context.setdefault(context_key, []).append(key)
        scanned = [keys for keys in by_context.values()
                   if any(key in verdicts for key in keys)]
        # whole contexts only: a verdict for every pair of a scanned
        # context, none for a context no share reached
        assert all(all(key in verdicts for key in keys)
                   for keys in scanned)
        assert len(scanned) < len(by_context)
        for key in verdicts:
            a, b = key
            assert verdicts[key] == is_compatible_in_classes(
                encoded.column(a), encoded.column(b), contexts[1 << a])
