"""Pluggable executors: where planner-emitted tasks actually run.

An executor resolves two kinds of work: partition products
(:class:`~repro.engine.tasks.ProductTask`, one lattice level per
batch) and scans.  Every scan — FASTOD's OCD/FD checks, the hybrid
escalation waves, the bidirectional/pointwise sweeps, one
validator/detector/incremental check — is one task shape,
:data:`ScanTask` ``(key, context_key, mode, a, b)``, run by
:meth:`run_scans`.  ``run_validations`` and ``scan_partition`` are
views over it.  Two implementations ship:

* :class:`SerialExecutor` runs every kernel on the calling thread,
  consulting the :class:`~repro.engine.budget.DeadlineBudget` before
  each level's products and between scan contexts.  A level's
  products are one :func:`~repro.partitions.partition.level_products`
  kernel call, and its scans one
  :func:`repro.core.validation.scan_verdicts` call: the swap tasks of
  one context are answered by one kernel call, each (A, B) pair's
  walk stopping at its first swap.
* :class:`PoolExecutor` splits every batch whose partitions hold at
  least one floor of grouped rows across an in-process
  :class:`~repro.parallel.WorkerPool` of threads: a level's products
  into shares grouped by left parent, a scan batch into shares of
  whole contexts.  The contexts a scan batch names by attribute mask
  are derived on the calling thread first, through the executor's own
  :class:`~repro.partitions.cache.PartitionCache`.  Smaller batches
  and single-dependency scans (one τ_A walk) stay on the calling
  thread through an internal :class:`SerialExecutor` that shares the
  same telemetry.  Each batch is billed once, with its wall time.

Neither picks a kernel backend: every batch runs on the one the
calling thread has active (:func:`repro.kernels.activate`, entered
once where a run starts), and the pool's shares inherit it.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Optional, Sequence, Tuple

import repro.parallel.pool as pool_module
from repro.engine.budget import DeadlineBudget
from repro.engine.tasks import ProductTask
from repro.engine.telemetry import ExecutorTelemetry
from repro.parallel.pool import (ScanTask, WorkerPool, resolve_workers,
                                 scanned_contexts)
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition, level_products
from repro.relation.encoding import EncodedRelation


class SerialExecutor:
    """Runs every task on the calling thread, on the kernel backend
    that thread has active."""

    name = "serial"

    def __init__(self, relation: EncodedRelation,
                 telemetry: Optional[ExecutorTelemetry] = None):
        self._relation = relation
        #: derives the contexts a scan batch names by attribute mask
        self._cache: Optional[PartitionCache] = None
        self.telemetry = telemetry or ExecutorTelemetry("serial", 1)

    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    def rebase(self, relation: EncodedRelation) -> None:
        """Follow a grown relation (the incremental append path)."""
        if relation is self._relation:
            return
        self._relation = relation
        self._cache = None

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """Every product of ``tasks`` (one lattice level) with one
        kernel call, plus a flag set when the budget had run out
        before it — then nothing is built, since a half-built level is
        never traversed."""
        started = time.perf_counter()
        products: Dict[int, StrippedPartition] = {}
        timed_out = budget.hit()
        if not timed_out:
            index = {mask: i for i, mask in enumerate(parents)}
            built = level_products(
                list(parents.values()),
                [(index[task.left], index[task.right]) for task in tasks])
            products = {task.child: product
                        for task, product in zip(tasks, built)}
        self.telemetry.record("products", len(products), False,
                              time.perf_counter() - started)
        return products, timed_out

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        """Per-key verdicts of ``tasks``, plus a flag set when the
        budget cut the batch short.  A task whose ``context_key`` is
        not in ``contexts`` names its context by attribute mask; the
        executor derives it from its own :class:`PartitionCache`.
        Swap tasks sharing a context take one kernel call
        (:func:`repro.core.validation.scan_verdicts`)."""
        # imported per batch: validation imports this package's
        # siblings, and a wrapper installed on the module's function
        # after import must still be the one called
        from repro.core.validation import scan_verdicts

        def context_of(context_key: Hashable) -> StrippedPartition:
            context = contexts.get(context_key)
            return self.derive(context_key) if context is None else context

        started = time.perf_counter()
        verdicts, timed_out = scan_verdicts(
            self._relation, tasks, context_of, budget.hit)
        self.telemetry.record(phase, len(verdicts), False,
                              time.perf_counter() - started)
        return verdicts, timed_out

    def derive(self, mask: int) -> StrippedPartition:
        """Π* of an attribute mask, from this executor's own
        :class:`PartitionCache`."""
        if self._cache is None:
            self._cache = PartitionCache(self._relation)
        return self._cache.get(mask)

    def run_validations(self, tasks: Sequence[ScanTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived from its mask."""
        return self.run_scans({}, tasks, budget, phase)

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        """One whole-partition scan: the verdict of a single
        dependency (the validator and the detector)."""
        verdicts, _ = self.run_scans(
            {0: partition}, [(0, 0, mode, a, b)],
            DeadlineBudget.unlimited(), "class-scan")
        return verdicts[0]


class PoolExecutor:
    """Splits big batches across an in-process thread pool.

    The pool starts on the first batch that crosses the grouped-row
    floor.  ``min_grouped_rows`` overrides the floor, which otherwise
    comes from :data:`repro.parallel.pool.PARALLEL_MIN_GROUPED_ROWS`
    *read at dispatch time* (so tests and benchmarks can retune it).
    Every batch is split into ``workers`` shares, whatever the pool's
    thread count; the shares run on the calling thread's active kernel
    backend.  An injected ``pool`` is reused and never shut down by
    :meth:`close`; an owned pool is joined there.
    """

    name = "pool"

    def __init__(self, relation: EncodedRelation, workers: int,
                 pool: Optional[WorkerPool] = None,
                 min_grouped_rows: Optional[int] = None):
        if workers < 2:
            raise ValueError("PoolExecutor needs workers >= 2; use "
                             "SerialExecutor for serial runs")
        self._relation = relation
        self.workers = workers
        self._injected = pool
        self._owned: Optional[WorkerPool] = None
        self._min_grouped_rows = min_grouped_rows
        self.telemetry = ExecutorTelemetry("pool", workers)
        self._serial = SerialExecutor(relation, telemetry=self.telemetry)

    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    @property
    def grouped_rows_threshold(self) -> int:
        if self._min_grouped_rows is not None:
            return self._min_grouped_rows
        return pool_module.PARALLEL_MIN_GROUPED_ROWS

    def rebase(self, relation: EncodedRelation) -> None:
        if relation is self._relation:
            return
        self._relation = relation
        self._serial.rebase(relation)
        for pool in (self._injected, self._owned):
            if pool is not None:
                pool.rebase(relation)

    def close(self) -> None:
        """Join the owned pool, if one was started; injected pools
        belong to the caller."""
        if self._owned is not None:
            self._owned.shutdown()
            self._owned = None

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _pool(self) -> WorkerPool:
        if self._injected is not None:
            return self._injected
        if self._owned is None:
            self._owned = WorkerPool(self._relation, self.workers)
        return self._owned

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """One lattice level, split into shares grouped by left parent
        once its parents hold a floor of grouped rows; otherwise as
        :meth:`SerialExecutor.run_products`."""
        rows = sum(len(parent.rows) for parent in parents.values())
        if len(tasks) < 2 or rows < self.grouped_rows_threshold:
            return self._serial.run_products(parents, tasks, budget)
        started = time.perf_counter()
        products, timed_out = self._pool().run_products(
            parents, [(task.child, task.left, task.right)
                      for task in tasks], budget.hit, self.workers)
        self.telemetry.record("products", len(products), True,
                              time.perf_counter() - started)
        return products, timed_out

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        """Per-key verdicts of ``tasks``, plus a flag set when the
        budget cut the batch short.  The contexts named by attribute
        mask are derived on the calling thread first (the budget is
        consulted between them); the batch then goes to the pool once
        its contexts hold a floor of grouped rows.  Pointwise tasks
        scan no context, and their pure-Python check holds the GIL, so
        they add nothing to the count."""
        scanned = scanned_contexts(tasks)
        resolved = dict(contexts)
        for key in scanned:
            if key not in resolved:
                if budget.hit():
                    return {}, True
                resolved[key] = self._serial.derive(key)
        rows = sum(len(resolved[key].rows) for key in scanned)
        if len(tasks) < 2 or rows < self.grouped_rows_threshold:
            return self._serial.run_scans(resolved, tasks, budget, phase)
        started = time.perf_counter()
        verdicts, timed_out = self._pool().run_scans(
            resolved, tasks, budget.hit, self.workers)
        self.telemetry.record(phase, len(verdicts), True,
                              time.perf_counter() - started)
        return verdicts, timed_out

    def run_validations(self, tasks: Sequence[ScanTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived from its mask."""
        return self.run_scans({}, tasks, budget, phase)

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        """On the calling thread, as
        :meth:`SerialExecutor.scan_partition`: one scan walks all of
        τ_A whatever the context's size, so shares would each repeat
        the walk.  No engine path calls it (the validator and the
        detector hold a serial executor); the end-to-end benchmark's
        probe table looks the name up."""
        return self._serial.scan_partition(mode, a, b, partition)


def make_executor(relation: EncodedRelation,
                  workers: Optional[int] = None,
                  pool: Optional[WorkerPool] = None,
                  min_grouped_rows: Optional[int] = None):
    """The one place the serial-vs-pool decision is made.

    An explicit ``workers`` wins (the benchmark's projection mode
    drives 4-share batches through an injected 1-thread pool);
    otherwise an injected pool sets the effective parallelism;
    otherwise ``REPRO_WORKERS`` / serial via
    :func:`repro.parallel.resolve_workers`.  Fewer than two effective
    workers yields a :class:`SerialExecutor` even when a pool was
    injected — mirroring the historical ``FastOD`` gate.  The kernel
    backend is not chosen here: the executor runs on whichever one the
    calling thread has active.
    """
    if workers is None and pool is not None:
        effective = pool.workers
    else:
        effective = resolve_workers(workers)
    if effective < 2:
        return SerialExecutor(relation)
    return PoolExecutor(relation, effective, pool=pool,
                        min_grouped_rows=min_grouped_rows)


__all__ = [
    "PoolExecutor",
    "ScanTask",
    "SerialExecutor",
    "make_executor",
]
