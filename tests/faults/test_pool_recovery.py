"""Crash recovery at the executor layer.

One injected worker crash must cost a retry, never an answer: the
rebuilt pool re-runs only unacknowledged tasks and the merged verdicts
are byte-identical to a clean run.  Faults that re-fire in every
rebuilt worker process exhaust the per-batch crash budget instead and
land in the serial quarantine — which also must agree with the clean
run, because the serial kernels never touch the failure surface.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.engine import DeadlineBudget, PoolExecutor
from repro.engine.executors import SerialExecutor
from repro.faults import FaultPlan
from repro.parallel.pool import (
    WorkerCrashError,
    WorkerPool,
    WorkerStallError,
)
from repro.partitions.partition import StrippedPartition


@pytest.fixture(scope="module")
def relation():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=6)


@pytest.fixture(scope="module")
def encoded(relation):
    return relation.encode()


def singleton_partitions(encoded):
    return {1 << a: StrippedPartition.for_attribute(encoded, a)
            for a in range(encoded.arity)}


def scan_tasks(encoded):
    return [((a, b), 1 << a, "swap", a, b)
            for a in range(encoded.arity)
            for b in range(encoded.arity) if a != b]


def one_shot(site: str, **kwargs) -> FaultPlan:
    """A plan that fires ``site`` exactly once per process."""
    return FaultPlan(seed=0, rates={site: 1.0}, limits={site: 1},
                     **kwargs)


def canonical(result_dict):
    """A discovery result with its timing/telemetry noise stripped —
    what "byte-identical" means across serial and chaotic runs."""
    stripped = dict(result_dict)
    for key in ("elapsed_seconds", "executor", "cache", "timings"):
        stripped.pop(key, None)
    stripped["levels"] = [
        {k: v for k, v in level.items()
         if k not in ("seconds", "peak_partition_bytes")}
        for level in stripped.get("levels", ())]
    return stripped


def dispatch_until_crash(encoded, dispatch, attempts=20):
    """Arm a one-shot worker kill and run ``dispatch`` until the kill
    provably landed mid-dispatch (``retries >= 1``).

    The kill races the victim's task pickup: a worker SIGKILL'd while
    still idle loses nothing, the survivor drains the queue, and the
    dispatch finishes cleanly — so a single armed attempt cannot
    guarantee a crash was *recovered from*, only that one was
    injected.  Re-arming a fresh plan per attempt keeps each attempt
    a deterministic one-shot.
    """
    for _ in range(attempts):
        with faults.injected(one_shot("pool.worker.kill")) as plan:
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                out = dispatch(ex)
                stats = ex.telemetry.snapshot()
        assert plan.fired.get("pool.worker.kill") == 1
        if stats["retries"] >= 1:
            return out, stats
    pytest.fail(f"worker kill never landed mid-dispatch in "
                f"{attempts} attempts")


class TestExecutorRecovery:
    """PoolExecutor dispatch batches survive injected failures."""

    def test_worker_kill_scans_byte_identical(self, encoded):
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_scans(
            dict(contexts), list(tasks), budget)
        (verdicts, timed_out), stats = dispatch_until_crash(
            encoded,
            lambda ex: ex.run_scans(dict(contexts), list(tasks),
                                    budget))
        assert not timed_out
        assert verdicts == clean
        assert stats["retries"] >= 1
        assert stats["rebuilds"] >= 1
        assert not stats["degraded"]

    def test_worker_kill_derived_contexts_byte_identical(
            self, encoded, monkeypatch):
        """Scans whose contexts the workers derive from attribute masks
        (the hybrid waves) ride the same recovery loop."""
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module, "PARALLEL_MIN_ROWS", 0)
        tasks = [((mask, a, b), mask, "swap", a, b)
                 for mask in range(1, 1 << 3)
                 for a, b in ((3, 4),)]
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_validations(tasks, budget)
        (verdicts, timed_out), stats = dispatch_until_crash(
            encoded, lambda ex: ex.run_validations(list(tasks), budget))
        assert not timed_out
        assert verdicts == clean
        assert not stats["degraded"]

    def test_worker_task_fault_quarantines_to_serial(self, encoded):
        """``worker.task`` re-fires in every rebuilt worker (forked
        children start with fresh per-process counters), so the batch
        exhausts its crash budget and completes serially."""
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_scans(
            dict(contexts), list(tasks), budget)
        with faults.injected(one_shot("worker.task")):
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                verdicts, _ = ex.run_scans(
                    dict(contexts), list(tasks), budget)
                stats = ex.telemetry.snapshot()
        assert verdicts == clean
        assert stats["retries"] >= 1

    def test_shm_attach_fault_recovers(self, encoded):
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_scans(
            dict(contexts), list(tasks), budget)
        with faults.injected(one_shot("shm.attach")):
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                verdicts, _ = ex.run_scans(
                    dict(contexts), list(tasks), budget)
        assert verdicts == clean

    def test_queue_drop_stalls_then_recovers(self, encoded):
        """A dropped chunk is only observable through the stall
        timeout; the typed stall error then rides the same retry path
        as a crash."""
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_scans(
            dict(contexts), list(tasks), budget)
        with faults.injected(one_shot("pool.queue.drop")) as plan:
            with PoolExecutor(encoded, 2, min_grouped_rows=0,
                              stall_timeout=0.5) as ex:
                verdicts, _ = ex.run_scans(
                    dict(contexts), list(tasks), budget)
                stats = ex.telemetry.snapshot()
        assert plan.fired.get("pool.queue.drop") == 1
        assert verdicts == clean
        assert stats["retries"] >= 1

    def test_crash_with_cancelled_budget_returns_promptly(self,
                                                          encoded):
        """The cancel-races-crash corner: a revoked budget plus a
        killed worker must neither hang nor leak — the dispatch either
        drains as timed out or the retry completes it."""
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget(3600.0)
        budget.cancel()
        with faults.injected(one_shot("pool.worker.kill")):
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                verdicts, timed_out = ex.run_scans(
                    dict(contexts), list(tasks), budget)
        assert timed_out or len(verdicts) == len(tasks)


class TestWorkerPoolCrashPath:
    """The raw pool contract under a crash: typed error, torn-down
    pool, unlinked segments, harvested partial acknowledgements."""

    def test_crash_tears_down_and_reports_partials(self, encoded):
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        # the kill races the victim's task pickup (see
        # dispatch_until_crash) — re-arm until a dispatch actually
        # loses work
        for _ in range(20):
            pool = WorkerPool(encoded, 2)
            try:
                with faults.injected(one_shot("pool.worker.kill")):
                    try:
                        pool.run_scans(contexts, tasks)
                    except WorkerCrashError as error:
                        assert pool.closed
                        assert isinstance(error.partial_results, list)
                        for payload in error.partial_results:
                            assert "verdicts" in payload
                        return
            finally:
                pool.shutdown()
        pytest.fail("worker kill never landed mid-dispatch")

    def test_stall_is_a_typed_crash(self, encoded):
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        pool = WorkerPool(encoded, 2, stall_timeout=0.5)
        try:
            with faults.injected(one_shot("pool.queue.drop")):
                with pytest.raises(WorkerStallError):
                    pool.run_scans(contexts, tasks)
            assert pool.closed
        finally:
            pool.shutdown()


class TestSeedMatrix:
    """The CI chaos job sweeps ``REPRO_FAULT_SEED``; whatever mix of
    faults a seed produces, discovery must return the clean answer."""

    def test_mixed_faults_byte_identical(self, relation):
        seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
        clean = canonical(FastOD(relation,
                                 FastODConfig()).run().to_dict())
        plan = FaultPlan(
            seed=seed,
            rates={"pool.worker.kill": 0.25, "worker.task": 0.1,
                   "shm.attach": 0.1, "pool.queue.delay": 0.3},
            limits={"pool.worker.kill": 2},
            delays={"pool.queue.delay": 0.01})
        config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
        with faults.injected(plan):
            chaotic = canonical(
                FastOD(relation, config).run().to_dict())
        assert chaotic == clean, (
            f"seed {seed} diverged; fired: {plan.log}")
