"""Executor protocol: serial/pool equivalence, gating, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import (
    dominance_holds_ranks,
    is_compatible_in_classes,
    is_constant_in_classes,
)
from repro.datasets import employees, make_dataset
from repro.engine import (
    DeadlineBudget,
    PoolExecutor,
    ProductTask,
    SerialExecutor,
    make_executor,
)
import repro.parallel.pool as pool_module
from repro.parallel.pool import WorkerPool
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition


@pytest.fixture(scope="module")
def encoded():
    return make_dataset("flight", n_rows=200, n_attrs=5,
                        seed=21).encode()


def all_mask_tasks(encoded, mode):
    arity = encoded.arity
    tasks = []
    for mask in range(1 << arity):
        for a in range(arity):
            if mask & (1 << a):
                continue
            for b in range(arity):
                if b <= a or mask & (1 << b):
                    continue
                tasks.append(((mask, a, b), mask, mode, a, b))
    return tasks


class TestMakeExecutor:
    def test_serial_by_default(self, encoded, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(make_executor(encoded), SerialExecutor)

    def test_env_opts_into_pool(self, encoded, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor = make_executor(encoded)
        assert isinstance(executor, PoolExecutor)
        assert executor.workers == 3
        executor.close()

    def test_explicit_workers_beat_injected_pool(self, encoded):
        with WorkerPool(encoded, 2) as pool:
            executor = make_executor(encoded, workers=4, pool=pool)
            assert isinstance(executor, PoolExecutor)
            assert executor.workers == 4
            executor.close()
            assert not pool.closed   # injected pools are the caller's

    def test_one_worker_is_serial_even_with_pool(self, encoded):
        with WorkerPool(encoded, 2) as pool:
            executor = make_executor(encoded, workers=1, pool=pool)
            assert isinstance(executor, SerialExecutor)


class TestSerialPoolEquivalence:
    @pytest.mark.parametrize("mode", ["const", "swap", "swap_desc"])
    def test_validations_agree(self, encoded, mode, monkeypatch):
        monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0)
        tasks = all_mask_tasks(encoded, mode)
        budget = DeadlineBudget.unlimited()
        serial, _ = SerialExecutor(encoded).run_validations(
            tasks, budget)
        pooled_executor = PoolExecutor(encoded, 2)
        try:
            pooled, _ = pooled_executor.run_validations(tasks, budget)
        finally:
            pooled_executor.close()
        assert serial == pooled
        assert len(serial) == len(tasks)

    def test_pointwise_validations_agree(self, encoded, monkeypatch):
        monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0)
        arity = encoded.arity
        tasks = []
        for lhs_mask in range(1, 1 << arity):
            for target in range(arity):
                if lhs_mask & (1 << target):
                    continue
                tasks.append(((lhs_mask, target), 0, "pointwise",
                              lhs_mask, target))
        budget = DeadlineBudget.unlimited()
        serial, _ = SerialExecutor(encoded).run_validations(
            tasks, budget)
        pooled_executor = PoolExecutor(encoded, 2)
        try:
            pooled, _ = pooled_executor.run_validations(tasks, budget)
        finally:
            pooled_executor.close()
        assert serial == pooled
        assert any(serial.values()) and not all(serial.values())

    def test_supplied_and_derived_contexts_in_one_batch(
            self, encoded, monkeypatch):
        """A context key present in ``contexts`` scans that partition;
        any other key is an attribute mask the executor derives."""
        monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0)
        cache = PartitionCache(encoded)
        contexts = {"chunk": cache.get(0b1)}
        tasks = [((mask, a, b), "chunk" if mask == 0b1 else mask,
                  "swap", a, b)
                 for mask in (0b1, 0b11, 0b110)
                 for a, b in ((3, 4),)]
        budget = DeadlineBudget.unlimited()
        serial, _ = SerialExecutor(encoded).run_scans(contexts, tasks,
                                                      budget)
        with PoolExecutor(encoded, 2) as pooled_executor:
            pooled, _ = pooled_executor.run_scans(contexts, tasks, budget)
            stats = pooled_executor.telemetry.snapshot()
        assert stats["phases"]["scans"]["pool_tasks"] == len(tasks)
        assert serial == pooled
        for (mask, a, b), verdict in serial.items():
            assert verdict == is_compatible_in_classes(
                encoded.column(a), encoded.column(b), cache.get(mask))

    def test_products_agree(self, encoded):
        cache = PartitionCache(encoded)
        parents = {1 << a: cache.get(1 << a)
                   for a in range(encoded.arity)}
        tasks = [ProductTask((1 << a) | (1 << b), 1 << a, 1 << b)
                 for a in range(encoded.arity)
                 for b in range(a + 1, encoded.arity)]
        budget = DeadlineBudget.unlimited()
        serial, timed = SerialExecutor(encoded).run_products(
            parents, tasks, budget)
        assert not timed
        pooled_executor = PoolExecutor(encoded, 2, min_grouped_rows=0)
        try:
            pooled, timed = pooled_executor.run_products(
                parents, tasks, budget)
        finally:
            pooled_executor.close()
        assert not timed
        assert set(serial) == set(pooled)
        for mask in serial:
            assert np.array_equal(serial[mask].rows, pooled[mask].rows)
            assert np.array_equal(serial[mask].offsets,
                                  pooled[mask].offsets)

    def test_scan_partition_agrees(self, encoded):
        cache = PartitionCache(encoded)
        partition = cache.get(0b1)
        serial = SerialExecutor(encoded)
        pooled_executor = PoolExecutor(encoded, 2, min_grouped_rows=0)
        try:
            for mode, a, b in [("swap", 1, 2), ("const", 3, 0),
                               ("swap_desc", 1, 2)]:
                assert (serial.scan_partition(mode, a, b, partition)
                        == pooled_executor.scan_partition(
                            mode, a, b, partition))
        finally:
            pooled_executor.close()


class TestKernelModes:
    """The serial kernels the modes map onto (oracle checks)."""

    def test_swap_desc_is_negated_right_column(self, encoded):
        context = StrippedPartition.single_class(encoded.n_rows)
        a, b = 0, 1
        budget = DeadlineBudget.unlimited()
        verdicts, _ = SerialExecutor(encoded).run_validations(
            [(0, 0, "swap_desc", a, b)], budget)
        assert verdicts[0] == is_compatible_in_classes(
            encoded.column(a), -encoded.column(b), context)

    def test_const_matches_kernel(self, encoded):
        cache = PartitionCache(encoded)
        budget = DeadlineBudget.unlimited()
        verdicts, _ = SerialExecutor(encoded).run_validations(
            [(0, 0b110, "const", 0, 0)], budget)
        assert verdicts[0] == is_constant_in_classes(
            encoded.column(0), cache.get(0b110))

    def test_pointwise_matches_public_validator(self):
        from repro.extensions import PointwiseOD, pointwise_od_holds

        relation = employees()
        encoded = relation.encode()
        names = encoded.names
        for lhs_mask in range(1, 1 << min(encoded.arity, 4)):
            lhs = [names[i] for i in range(encoded.arity)
                   if lhs_mask & (1 << i)]
            for target in range(encoded.arity):
                if lhs_mask & (1 << target):
                    continue
                od = PointwiseOD(frozenset(lhs),
                                 frozenset({names[target]}))
                assert dominance_holds_ranks(
                    encoded.ranks, lhs_mask, target) \
                    == pointwise_od_holds(relation, od), str(od)


class TestTelemetry:
    def test_serial_counts_tasks(self, encoded):
        executor = SerialExecutor(encoded)
        budget = DeadlineBudget.unlimited()
        executor.run_validations(all_mask_tasks(encoded, "swap")[:5],
                                 budget, phase="wave")
        snap = executor.telemetry.snapshot()
        assert snap["backend"] == "serial"
        assert snap["phases"]["wave"]["tasks"] == 5
        assert snap["phases"]["wave"]["serial_tasks"] == 5
        assert snap["phases"]["wave"]["pool_tasks"] == 0

    def test_pool_records_split(self, encoded, monkeypatch):
        monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0)
        executor = PoolExecutor(encoded, 2)
        budget = DeadlineBudget.unlimited()
        try:
            executor.run_validations(
                all_mask_tasks(encoded, "swap")[:6], budget,
                phase="wave")
            # a single-task batch falls back to the serial twin
            executor.run_validations(
                all_mask_tasks(encoded, "swap")[:1], budget,
                phase="wave")
        finally:
            executor.close()
        snap = executor.telemetry.snapshot()
        assert snap["backend"] == "pool"
        assert snap["workers"] == 2
        assert snap["phases"]["wave"]["pool_tasks"] == 6
        assert snap["phases"]["wave"]["serial_tasks"] == 1
        assert snap["phases"]["wave"]["tasks"] == 7
        assert snap["phases"]["wave"]["dispatches"] == 2

    def test_subthreshold_batches_stay_serial(self, encoded, monkeypatch):
        tasks = all_mask_tasks(encoded, "swap")[:6]
        # above every grouped row the six contexts could hold
        monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS",
                            encoded.n_rows * len(tasks) + 1)
        executor = PoolExecutor(encoded, 2)
        budget = DeadlineBudget.unlimited()
        try:
            executor.run_validations(tasks, budget, phase="wave")
        finally:
            executor.close()
        snap = executor.telemetry.snapshot()
        assert snap["phases"]["wave"]["pool_tasks"] == 0
        assert snap["phases"]["wave"]["serial_tasks"] == 6


class TestRebase:
    def test_serial_rebase_follows_relation(self):
        first = make_dataset("flight", n_rows=60, n_attrs=4,
                             seed=1).encode()
        second = make_dataset("flight", n_rows=80, n_attrs=4,
                              seed=2).encode()
        executor = SerialExecutor(first)
        budget = DeadlineBudget.unlimited()
        executor.run_validations([(0, 0b11, "swap", 0, 1)], budget)
        executor.rebase(second)
        assert executor.relation is second
        verdicts, _ = executor.run_validations(
            [(0, 0b11, "swap", 0, 1)], budget)
        cache = PartitionCache(second)
        assert verdicts[0] == is_compatible_in_classes(
            second.column(0), second.column(1), cache.get(0b11))
