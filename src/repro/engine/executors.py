"""Pluggable executors: where planner-emitted tasks actually run.

An :class:`Executor` resolves two kinds of work: partition products
(:class:`~repro.engine.tasks.ProductTask`) and scans.  Products run on
the coordinator in every executor: a lattice level's products are one
:func:`~repro.partitions.partition.level_products` kernel call, with
the budget consulted once before it.  Every scan —
FASTOD's OCD/FD checks, the hybrid escalation waves, the
bidirectional/pointwise sweeps, one validator/detector/incremental
check — is one task shape, :data:`ScanTask`
``(key, context_key, mode, a, b)``, run by :meth:`run_scans`.
``run_validations`` and ``scan_partition`` are views over it.  Two
implementations ship:

* :class:`SerialExecutor` runs every kernel inline on the coordinator,
  consulting the :class:`~repro.engine.budget.DeadlineBudget` before
  each level's products and between scan contexts.  Its scans and the
  pool workers' share one batch function,
  :func:`repro.core.validation.scan_verdicts`: the swap tasks of one
  context are answered by one kernel call, each (A, B) pair's walk
  stopping at its first swap.
* :class:`PoolExecutor` wraps a shared-memory
  :class:`~repro.parallel.WorkerPool` for scan batches.  A batch
  leaves the coordinator only when it has at least two tasks and
  enough rows to amortize process dispatch: grouped rows when the
  caller supplies every context partition, relation rows when workers
  derive them.  Products, smaller batches and single-dependency scans
  (one τ_A walk, which splitting by class would only repeat per
  chunk) fall through to an internal :class:`SerialExecutor` that
  shares the same telemetry, and every pooled batch goes through one
  crash-recovery loop.

Every future backend (async, distributed) is a third implementation of
this protocol — not another traversal fork.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Optional, Protocol, Sequence, Tuple

import repro.parallel.pool as pool_module
from repro import kernels
from repro.engine.budget import DeadlineBudget
from repro.engine.tasks import ProductTask
from repro.engine.telemetry import ExecutorTelemetry
from repro.obs import events
from repro.parallel.pool import (PoolDispatchError, ScanTask, WorkerPool,
                                 resolve_workers)
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition, level_products
from repro.relation.encoding import EncodedRelation

#: Crashed dispatches tolerated per batch before the remaining tasks
#: are quarantined to the serial path: the first crash rebuilds the
#: pool and re-runs only unacknowledged tasks, a second crash on the
#: same batch stops trusting the pool with it (poison-task
#: quarantine — the serial kernels never touch the failure surface).
MAX_DISPATCH_CRASHES = 2

#: Capped exponential backoff between a crash and the rebuilt pool's
#: retry dispatch (seconds): base * 2^(crash-1), capped.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 1.0


class SerialExecutor:
    """Runs every task inline on the coordinator.

    ``kernel_backend`` pins the :mod:`repro.kernels` backend the task
    batches run under (``None`` defers to the process default /
    ``REPRO_KERNELS``); the executor activates it around every batch so
    one process can host executors on different backends.
    """

    name = "serial"

    def __init__(self, relation: EncodedRelation,
                 telemetry: Optional[ExecutorTelemetry] = None,
                 kernel_backend: Optional[str] = None):
        self._relation = relation
        #: derives the contexts a scan batch names by attribute mask
        self._cache: Optional[PartitionCache] = None
        self.kernel_backend = kernel_backend
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
            with kernels.activate(self.kernel_backend):
                built = level_products(
                    list(parents.values()),
                    [(index[task.left], index[task.right])
                     for task in tasks])
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
            if context is None:
                if self._cache is None:
                    self._cache = PartitionCache(self._relation)
                context = self._cache.get(context_key)
            return context

        started = time.perf_counter()
        with kernels.activate(self.kernel_backend):
            verdicts, timed_out = scan_verdicts(
                self._relation, tasks, context_of, budget.hit)
        self.telemetry.record(phase, len(verdicts), False,
                              time.perf_counter() - started)
        return verdicts, timed_out

    def run_validations(self, tasks: Sequence[ScanTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived from its mask."""
        return self.run_scans({}, tasks, budget, phase)

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        """One whole-partition scan: the verdict of a single
        dependency (validator, detector, incremental re-check)."""
        verdicts, _ = self.run_scans(
            {0: partition}, [(0, 0, mode, a, b)],
            DeadlineBudget.unlimited(), "class-scan")
        return verdicts[0]


class PoolExecutor:
    """Shards big scan batches over a shared-memory worker pool;
    products stay on the coordinator.

    The pool starts lazily on the first dispatch that crosses the
    serial-fallback thresholds.  ``min_grouped_rows`` overrides the
    grouped-row floor; both floors otherwise come from
    :mod:`repro.parallel.pool` globals *read at dispatch time* (so tests
    and benchmarks can retune them).  An injected ``pool`` is reused and
    never shut down by :meth:`close`; an owned pool is torn down there
    (and rebuilt on the next dispatch after a crash-path shutdown).
    """

    name = "pool"

    def __init__(self, relation: EncodedRelation, workers: int,
                 pool: Optional[WorkerPool] = None,
                 min_grouped_rows: Optional[int] = None,
                 stall_timeout: Optional[float] = None,
                 kernel_backend: Optional[str] = None):
        if workers < 2:
            raise ValueError("PoolExecutor needs workers >= 2; use "
                             "SerialExecutor for serial runs")
        self._relation = relation
        self.workers = workers
        self._injected = pool
        self._owned: Optional[WorkerPool] = None
        self._min_grouped_rows = min_grouped_rows
        self.stall_timeout = stall_timeout
        #: kernels backend the batches (pooled chunks *and* the serial
        #: fallback) run under; ``None`` defers to the process default
        self.kernel_backend = kernel_backend
        self._rebuild_pending = False
        self.telemetry = ExecutorTelemetry("pool", workers)
        self._serial = SerialExecutor(relation, telemetry=self.telemetry,
                                      kernel_backend=kernel_backend)

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
        if self._injected is not None and not self._injected.closed:
            self._injected.rebase(relation)
        if self._owned is not None and not self._owned.closed:
            self._owned.rebase(relation)

    def close(self) -> None:
        """Shut down the owned pool, if one was started; injected pools
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
        if self._owned is not None and self._owned.closed:
            self._owned = None          # crashed earlier: rebuild
            self._rebuild_pending = True
        if self._owned is None:
            self._owned = WorkerPool(self._relation, self.workers,
                                     stall_timeout=self.stall_timeout,
                                     kernel_backend=self.kernel_backend)
            if self._rebuild_pending:
                self.telemetry.record_rebuild()
                self._rebuild_pending = False
        return self._owned

    # -- crash recovery -------------------------------------------------
    def _recover(self, crashes: int, will_retry: bool) -> None:
        """Account for one crashed dispatch and prepare the retry.

        A crashed owned pool tore itself down already (``closed``);
        :meth:`_pool` rebuilds it on the next dispatch.  A crashed
        *injected* pool belongs to the caller but is equally unusable,
        so it is dropped here and replaced by an owned rebuild.  The
        backoff sleep only happens when another pool attempt follows —
        quarantined batches go serial immediately.
        """
        self.telemetry.record_retry()
        # one structured line per crashed dispatch; emitted inside the
        # job's span context, so it carries trace_id/span_id and joins
        # against /jobs/{id}/trace
        events.emit("executor.dispatch_crashed", crashes=crashes,
                    retry=will_retry, workers=self.workers)
        if self._injected is not None and self._injected.closed:
            self._injected = None
            self._rebuild_pending = True
        if will_retry:
            time.sleep(min(RETRY_BACKOFF_BASE * (2 ** (crashes - 1)),
                           RETRY_BACKOFF_CAP))

    def _dispatch(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str) -> Tuple[Dict[Hashable, bool], bool]:
        """Run ``tasks`` on the pool: crash → harvest → rebuild →
        backoff → quarantine, the one recovery loop of every pooled
        batch.  Verdicts a crashed dispatch had acknowledged are kept
        and only the other tasks re-run; a batch that crashes
        :data:`MAX_DISPATCH_CRASHES` times finishes on the serial
        executor."""
        results: Dict[Hashable, bool] = {}
        remaining = list(tasks)
        started = time.perf_counter()
        crashes = 0
        while remaining and crashes < MAX_DISPATCH_CRASHES:
            try:
                with kernels.activate(self.kernel_backend):
                    got, timed_out = self._pool().run_scans(
                        contexts, remaining, budget.deadline)
            except PoolDispatchError as error:
                for payload in error.partial_results:
                    results.update(payload.get("verdicts", ()))
                remaining = [t for t in remaining if t[0] not in results]
                crashes += 1
                self._recover(crashes, bool(remaining)
                              and crashes < MAX_DISPATCH_CRASHES)
                continue
            results.update(got)
            self.telemetry.record(phase, len(results), True,
                                  time.perf_counter() - started)
            return results, timed_out
        self.telemetry.record(phase, len(results), True,
                              time.perf_counter() - started)
        if not remaining:
            return results, False
        self.telemetry.mark_degraded()
        got, timed_out = self._serial.run_scans(contexts, remaining,
                                                budget, phase)
        results.update(got)
        return results, timed_out

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """On the coordinator, as :meth:`SerialExecutor.run_products`:
        one kernel call builds a level faster than workers rebuild
        probe tables from shared parents.  The scans that need a
        product as their context publish it then."""
        return self._serial.run_products(parents, tasks, budget)

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        if all(task[1] in contexts for task in tasks):
            rows = sum(len(p.rows) for p in contexts.values())
            floor = self.grouped_rows_threshold
        else:       # workers derive contexts: gate on the relation
            rows = self._relation.n_rows
            floor = pool_module.PARALLEL_MIN_ROWS
        if len(tasks) < 2 or rows < floor:
            return self._serial.run_scans(contexts, tasks, budget, phase)
        return self._dispatch(contexts, tasks, budget, phase)

    def run_validations(self, tasks: Sequence[ScanTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived from its mask."""
        return self.run_scans({}, tasks, budget, phase)

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        """On the coordinator, as :meth:`SerialExecutor.scan_partition`:
        one scan walks all of τ_A whatever the context's size, so
        class chunks on workers would each repeat the walk.  No engine
        path calls it (the validator, the detector and the incremental
        engine hold a serial executor); the end-to-end benchmark's
        probe table looks the name up."""
        return self._serial.scan_partition(mode, a, b, partition)


class Executor(Protocol):
    """The executor contract planners and backends program to.

    Structural (``typing.Protocol``): :class:`SerialExecutor` and
    :class:`PoolExecutor` satisfy it without inheriting, and a future
    backend (async, distributed) only needs these methods."""

    telemetry: ExecutorTelemetry

    @property
    def relation(self) -> EncodedRelation: ...

    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]: ...

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]: ...

    def run_validations(self, tasks: Sequence[ScanTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]: ...

    def rebase(self, relation: EncodedRelation) -> None: ...

    def close(self) -> None: ...


def make_executor(relation: EncodedRelation,
                  workers: Optional[int] = None,
                  pool: Optional[WorkerPool] = None,
                  min_grouped_rows: Optional[int] = None,
                  stall_timeout: Optional[float] = None,
                  kernel_backend: Optional[str] = None):
    """The one place the serial-vs-pool decision is made.

    An explicit ``workers`` wins (the benchmark's projection mode
    drives 4-worker sharding through an injected 1-process pool);
    otherwise an injected pool sets the effective parallelism;
    otherwise ``REPRO_WORKERS`` / serial via
    :func:`repro.parallel.resolve_workers`.  Fewer than two effective
    workers yields a :class:`SerialExecutor` even when a pool was
    injected — mirroring the historical ``FastOD`` gate.

    ``kernel_backend`` picks the :mod:`repro.kernels` backend the
    executor's batches run under (threaded to pool workers through the
    task payloads); ``None`` defers to ``REPRO_KERNELS``/auto.
    """
    if workers is None and pool is not None:
        effective = pool.workers
    else:
        effective = resolve_workers(workers)
    if effective < 2:
        return SerialExecutor(relation, kernel_backend=kernel_backend)
    return PoolExecutor(relation, effective, pool=pool,
                        min_grouped_rows=min_grouped_rows,
                        stall_timeout=stall_timeout,
                        kernel_backend=kernel_backend)


__all__ = [
    "Executor",
    "PoolExecutor",
    "ScanTask",
    "SerialExecutor",
    "make_executor",
]
