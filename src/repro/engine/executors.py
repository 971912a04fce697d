"""Pluggable executors: where planner-emitted tasks actually run.

An :class:`Executor` resolves two kinds of work: partition products
(:class:`~repro.engine.tasks.ProductTask`) and scans.  Every scan —
FASTOD's OCD/FD checks, the hybrid escalation waves, the
bidirectional/pointwise sweeps, one validator/detector/incremental
check — is one task shape, :data:`ScanTask`
``(key, context_key, mode, a, b)``, run by :meth:`run_scans`.
``run_validations`` and ``scan_partition`` are views over it.  Two
implementations ship:

* :class:`SerialExecutor` runs every kernel inline on the coordinator,
  consulting the :class:`~repro.engine.budget.DeadlineBudget` between
  tasks.  Its scans and the pool workers' share one batch function,
  :func:`repro.core.validation.scan_verdicts`: the swap tasks of one
  context are answered by one kernel call, each (A, B) pair's walk
  stopping at its first swap.
* :class:`PoolExecutor` wraps a shared-memory
  :class:`~repro.parallel.WorkerPool`.  A batch leaves the coordinator
  only when it has at least two tasks and enough rows to amortize
  process dispatch: grouped rows when the caller supplies every
  context partition, relation rows when workers derive them.  Smaller
  batches fall through to an internal :class:`SerialExecutor` that
  shares the same telemetry, and every pooled batch goes through one
  crash-recovery loop.

Every future backend (async, distributed) is a third implementation of
this protocol — not another traversal fork.
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, Hashable, List, Optional, Protocol,
                    Sequence, Tuple)

import repro.parallel.pool as pool_module
from repro import kernels
from repro.engine.budget import DeadlineBudget
from repro.engine.tasks import ProductTask
from repro.engine.telemetry import ExecutorTelemetry
from repro.obs import events
from repro.parallel.pool import (PoolDispatchError, ScanTask, WorkerPool,
                                 resolve_workers)
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition
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
        started = time.perf_counter()
        products: Dict[int, StrippedPartition] = {}
        with kernels.activate(self.kernel_backend):
            for task in tasks:
                if budget.hit():
                    self.telemetry.record(
                        "products", len(products), False,
                        time.perf_counter() - started)
                    return products, True
                products[task.child] = parents[task.left].product(
                    parents[task.right])
        self.telemetry.record("products", len(products), False,
                              time.perf_counter() - started)
        return products, False

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
        """One whole-partition scan (validator/detector/incremental)."""
        verdicts, _ = self.run_scans(
            {0: partition}, [(0, 0, mode, a, b)],
            DeadlineBudget.unlimited(), "class-scan")
        return verdicts[0]


class PoolExecutor:
    """Shards big task batches over a shared-memory worker pool.

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

    def _dispatch(self, phase: str, tasks: Sequence,
                  send: Callable[[WorkerPool, List], Tuple[Dict, bool]],
                  fallback: Callable[[List], Tuple[Dict, bool]],
                  harvest: bool = True) -> Tuple[Dict, bool]:
        """Run ``tasks`` on the pool: crash → harvest → rebuild →
        backoff → quarantine, the one recovery loop of every pooled
        batch.

        ``send(pool, tasks)`` and ``fallback(tasks)`` return ``(results,
        timed_out)`` from the pool and from the serial twin.  With
        ``harvest``, verdicts a crashed dispatch had acknowledged are
        kept and only the other tasks (keyed by ``task[0]``) re-run.
        Product batches harvest nothing (their outputs lived in the
        torn-down segment), and neither does a class-sharded scan,
        whose partial results are per-chunk verdicts rather than the
        scan's own.
        """
        results: Dict = {}
        remaining = list(tasks)
        started = time.perf_counter()
        crashes = 0
        while remaining and crashes < MAX_DISPATCH_CRASHES:
            try:
                with kernels.activate(self.kernel_backend):
                    got, timed_out = send(self._pool(), remaining)
            except PoolDispatchError as error:
                if harvest:
                    for payload in error.partial_results:
                        results.update(payload.get("verdicts", ()))
                    remaining = [t for t in remaining
                                 if t[0] not in results]
                crashes += 1
                self._recover(crashes, bool(remaining)
                              and crashes < MAX_DISPATCH_CRASHES)
                continue
            results.update(got)
            self.telemetry.record(phase, len(results), True,
                                  time.perf_counter() - started)
            return results, timed_out
        if harvest:
            self.telemetry.record(phase, len(results), True,
                                  time.perf_counter() - started)
        if not remaining:
            return results, False
        self.telemetry.mark_degraded()
        got, timed_out = fallback(remaining)
        results.update(got)
        return results, timed_out

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        grouped_rows = sum(len(p.rows) for p in parents.values())
        if len(tasks) < 2 or grouped_rows < self.grouped_rows_threshold:
            return self._serial.run_products(parents, tasks, budget)
        triples = [(t.child, t.left, t.right) for t in tasks]
        return self._dispatch(
            "products", tasks,
            lambda pool, _: pool.run_products(parents, triples,
                                              budget.deadline),
            lambda rest: self._serial.run_products(parents, rest, budget),
            harvest=False)

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
        return self._dispatch(
            phase, tasks,
            lambda pool, rest: pool.run_scans(contexts, rest,
                                              budget.deadline),
            lambda rest: self._serial.run_scans(contexts, rest, budget,
                                                phase))

    def run_validations(self, tasks: Sequence[ScanTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived from its mask."""
        return self.run_scans({}, tasks, budget, phase)

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        """One whole-partition scan, class-sharded over the pool
        (:meth:`WorkerPool.run_class_scan`) when the partition is big
        enough; a crash re-runs it whole."""
        if (partition.n_classes < 2
                or len(partition.rows) < self.grouped_rows_threshold
                or mode == "pointwise"):
            return self._serial.scan_partition(mode, a, b, partition)

        def send(pool: WorkerPool, _) -> Tuple[Dict[int, bool], bool]:
            verdict, timed_out = pool.run_class_scan(mode, a, b,
                                                     partition)
            return {0: verdict}, timed_out

        def fallback(_) -> Tuple[Dict[int, bool], bool]:
            return {0: self._serial.scan_partition(mode, a, b,
                                                   partition)}, False

        verdicts, _ = self._dispatch("class-scan", [(0, 0, mode, a, b)],
                                     send, fallback, harvest=False)
        return verdicts[0]


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

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool: ...

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
