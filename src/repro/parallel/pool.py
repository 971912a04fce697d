"""An in-process thread pool for lattice-level execution.

FASTOD's level-wise sweep visits each lattice node independently
within a level (Algorithm 1): the partition products of one level have
no dependencies on each other, and neither do its validation scans.
:class:`WorkerPool` splits such a batch into *shares* and runs them on
a :class:`concurrent.futures.ThreadPoolExecutor` bound to one encoded
relation.

Threads suffice because the work inside a share is a kernel call that
releases the GIL: the compiled kernels are plain C behind ctypes, which
drops the GIL for the duration of every foreign call, and the
reference kernels spend their time in NumPy sorts and gathers, which
release it too.  ``_kernels.c`` keeps no static state, so the existing
single-threaded kernels run side by side unchanged, with no pickling,
no shared memory and no worker processes.  The pure-Python
``"pointwise"`` dominance check is the exception: it holds the GIL, so
pointwise shares interleave rather than overlap.

* **products** — a level's ``(child, left, right)`` triples are
  grouped by left parent (the product kernel fills one probe per run
  of tasks sharing a left parent) and the groups are dealt into
  shares balanced by the rows they read; each share is one
  :func:`~repro.partitions.partition.level_products` call;
* **scans** — every context a batch scans and every τ_A
  (:meth:`~repro.relation.encoding.EncodedRelation.order`) its swap
  tasks walk is derived on the calling thread first, so shares only
  read shared state.  The swap tasks of one context stay together
  (one kernel call per context) and the contexts are dealt into
  shares balanced by pairs × rows; each share is one
  :func:`~repro.core.validation.scan_verdicts` call.

Each share runs under the caller's resolved kernel backend and a
:func:`contextvars.copy_context` of the caller, so the job's trace
buffer and open span follow it onto the pool thread, and the per-job
sampling profiler follows the thread while the share runs
(:func:`repro.obs.profiler.follow`).  ``getrusage`` bills every thread
of the process, so the job's resource account needs nothing more.  A
share records one ``task`` span, nested under the batch's
``pool-dispatch`` span.  The caller waits for every share of a batch;
if any share raised, the first exception propagates once all of them
have ended, so a failing share fails the batch without leaving work
behind.

Determinism: shares run the exact batch functions the serial executor
runs, on the same inputs, and the coordinator merges their outputs
keyed by task, so results are byte-identical to ``workers=1``.

The trade against worker processes: a fault inside a C kernel now
takes down the whole process instead of one worker.  Both kernels
check their contracts before their first write and raise
``ValueError`` on a violation, and CI runs them under ASan/UBSan.

Cancellation is cooperative: a scan share consults the caller's
``expired`` callable before each context and stops there, returning
the verdicts it has and a ``timed_out`` flag.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from repro import kernels
from repro.kernels import thresholds as kernel_thresholds
from repro.obs import metrics, profiler, trace
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition, level_products
from repro.relation.encoding import EncodedRelation

_DISPATCHES = metrics.counter(
    "repro_pool_dispatches_total",
    "Batches split across the thread pool, by kind", ("kind",))
_DISPATCH_SECONDS = metrics.histogram(
    "repro_pool_dispatch_seconds",
    "Caller wall clock per pool batch (first share submitted to last "
    "share ended), by kind", ("kind",))
_QUEUE_WAIT_SECONDS = metrics.histogram(
    "repro_pool_queue_wait_seconds",
    "Pool overhead per batch: wall clock minus the busiest share's "
    "busy time, clamped at zero")

#: Below this many grouped rows in a batch's partitions the executor
#: keeps the batch on the calling thread: handing shares to threads
#: costs tens of microseconds, which only pays once the kernels have
#: real work to chew on.  Canonical value in
#: :mod:`repro.kernels.thresholds`; this module global is the name
#: read at dispatch time, so tests and benchmarks can retune it.
PARALLEL_MIN_GROUPED_ROWS = kernel_thresholds.PARALLEL_MIN_GROUPED_ROWS

#: Dispatch telemetry records kept per pool (ring-buffer style) — far
#: more than one discovery run produces, small enough that a pool held
#: by an unbounded ``watch`` loop cannot accumulate without limit.
MAX_DISPATCH_RECORDS = 512

#: ``(key, context_key, mode, a, b)`` — one scan, the only scan task
#: shape.  A ``context_key`` present in the batch's ``contexts`` names
#: that partition; any other key is an attribute mask whose Π* the
#: executor derives.  Modes: ``"swap"``, ``"const"`` (``a`` constant),
#: ``"swap_desc"`` (descending right column), ``"pointwise"`` (``a`` is
#: an LHS bitmask, ``b`` a target attribute; the context is ignored).
ScanTask = Tuple[Hashable, Hashable, str, int, int]

_SWAP_MODES = ("swap", "swap_desc")


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: explicit value, else ``REPRO_WORKERS``,
    else 1 (serial).  Values below 1 clamp to serial."""
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            workers = 1
    return max(1, int(workers))


def _never() -> bool:
    return False


def deal(costs: Sequence[float], shares: int) -> List[List[int]]:
    """The indices of ``costs`` dealt into at most ``shares`` lists,
    heaviest first onto the lightest list (longest processing time
    first); each list ascending, empty lists dropped."""
    loads = [0.0] * max(1, shares)
    dealt: List[List[int]] = [[] for _ in loads]
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        lightest = loads.index(min(loads))
        dealt[lightest].append(index)
        loads[lightest] += costs[index]
    return [sorted(indices) for indices in dealt if indices]


def scanned_contexts(tasks: Sequence[ScanTask]) -> List[Hashable]:
    """The distinct context keys ``tasks`` scan, in first-seen order
    (pointwise tasks ignore their context)."""
    return list(dict.fromkeys(task[1] for task in tasks
                              if task[2] != "pointwise"))


class WorkerPool:
    """A thread pool bound to one encoded relation.

    ``with WorkerPool(encoded, workers=4) as pool: ...`` — or call
    :meth:`shutdown` explicitly.  Threads start on the first batch and
    serve every batch of every run that reuses the pool.  ``shares``
    on the batch methods sets how many shares a batch is split into
    (default: the pool's thread count); the executor passes its own
    worker count, so a one-thread pool can run a four-way split.
    """

    def __init__(self, relation: EncodedRelation, workers: int):
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self._relation = relation
        self.workers = workers
        self._threads = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker")
        #: per-batch telemetry: kind, tasks, shares, per-share busy
        #: seconds, wall seconds — the currency of the parallel
        #: benchmark's work-distribution projection
        self.dispatches: List[Dict[str, object]] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    def rebase(self, relation: EncodedRelation) -> None:
        """Point the pool at another relation (the incremental append
        path, and the service's shared pool between jobs)."""
        self._relation = relation

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed pool takes no
        further batches."""
        return self._closed

    def shutdown(self) -> None:
        """Drop queued shares and join every thread (idempotent)."""
        self._closed = True
        self._threads.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- dispatch ------------------------------------------------------
    def _run(self, kind: str, n_tasks: int,
             shares: Sequence[Tuple[int, Callable[[], object]]]
             ) -> List[object]:
        """Run ``(n_tasks, fn)`` shares on the pool's threads and
        return their outputs in share order, billing the batch once."""
        backend = kernels.active_backend()
        started = time.perf_counter()
        with trace.span("pool-dispatch", kind=kind, shares=len(shares)):
            futures = [
                self._threads.submit(contextvars.copy_context().run,
                                     _share, backend, kind, size, fn)
                for size, fn in shares]
            wait(futures)
            outputs = [future.result() for future in futures]
        wall = time.perf_counter() - started
        busy = [seconds for _, seconds in outputs]
        queue_wait = max(0.0, wall - max(busy, default=0.0))
        self.dispatches.append({
            "kind": kind,
            "n_tasks": n_tasks,
            "n_shares": len(shares),
            "share_busy_seconds": busy,
            "wall_seconds": wall,
            "queue_wait_seconds": queue_wait,
        })
        if len(self.dispatches) > MAX_DISPATCH_RECORDS:
            del self.dispatches[:len(self.dispatches)
                                - MAX_DISPATCH_RECORDS]
        _DISPATCHES.inc(kind=kind)
        _DISPATCH_SECONDS.observe(wall, kind=kind)
        _QUEUE_WAIT_SECONDS.observe(queue_wait)
        return [output for output, _ in outputs]

    # -- level operations ----------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     triples: Sequence[Tuple[int, int, int]],
                     expired: Callable[[], bool] = _never,
                     shares: Optional[int] = None
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """``Π_left · Π_right`` for every ``(child, left, right)``
        triple, split into shares by left parent; returns ``({},
        True)`` when ``expired()`` already holds (a half-built level
        is never traversed)."""
        if expired():
            return {}, True
        ordered = list(parents.values())
        index = {mask: i for i, mask in enumerate(parents)}
        pairs = [(index[left], index[right]) for _, left, right in triples]
        by_left: Dict[int, List[int]] = {}
        for t, (left, _) in enumerate(pairs):
            by_left.setdefault(left, []).append(t)
        groups = list(by_left.values())
        costs = [len(ordered[pairs[group[0]][0]].rows)
                 + sum(len(ordered[pairs[t][1]].rows) for t in group)
                 for group in groups]
        share_tasks = [[t for g in dealt for t in groups[g]]
                       for dealt in deal(costs, shares or self.workers)]
        built = self._run("products", len(triples), [
            (len(ts), partial(level_products, ordered,
                              [pairs[t] for t in ts]))
            for ts in share_tasks])
        products: Dict[int, StrippedPartition] = {}
        for ts, share in zip(share_tasks, built):
            for t, product in zip(ts, share):
                products[triples[t][0]] = product
        return {child: products[child] for child, _, _ in triples}, False

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask],
                  expired: Callable[[], bool] = _never,
                  shares: Optional[int] = None
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        """Per-key verdicts of ``tasks``, split into shares, plus a flag
        set when ``expired()`` cut a share short (its verdicts then
        cover the contexts it reached).

        A ``context_key`` missing from ``contexts`` names its context
        by attribute mask and is derived here, on the calling thread
        (the executor supplies every context, derived through its own
        cache).  The swap tasks of one context stay in one share."""
        # imported per batch: validation imports this package's
        # siblings, and a wrapper installed on the module's function
        # after import must still be the one called
        from repro.core.validation import scan_verdicts

        relation = self._relation
        missing = [key for key in scanned_contexts(tasks)
                   if key not in contexts]
        if missing:
            cache = PartitionCache(relation)
            contexts = {**contexts, **{key: cache.get(key)
                                       for key in missing}}
        # τ_A of every left attribute a non-empty context walks, sorted
        # once here instead of racing in the shares
        for a in {task[3] for task in tasks
                  if task[2] in _SWAP_MODES and len(contexts[task[1]].rows)}:
            relation.order(a)
        units: Dict[Hashable, List[int]] = {}
        for i, task in enumerate(tasks):
            unit = (task[1] if task[2] in _SWAP_MODES else ("single", i))
            units.setdefault(unit, []).append(i)
        groups = list(units.values())
        n_rows = relation.n_rows
        costs = []
        for group in groups:
            task = tasks[group[0]]
            if task[2] == "pointwise":
                costs.append(n_rows)
            else:
                m = len(contexts[task[1]].rows)
                costs.append(len(group) * (n_rows + m)
                             if task[2] in _SWAP_MODES else m + 1)
        share_tasks = [[tasks[t] for g in dealt for t in groups[g]]
                       for dealt in deal(costs, shares or self.workers)]
        outputs = self._run("scans", len(tasks), [
            (len(ts), partial(scan_verdicts, relation, ts,
                              contexts.__getitem__, expired))
            for ts in share_tasks])
        verdicts: Dict[Hashable, bool] = {}
        timed_out = False
        for got, cut in outputs:
            verdicts.update(got)
            timed_out |= cut
        return verdicts, timed_out

    def run_validations(self, tasks: Sequence[ScanTask],
                        expired: Callable[[], bool] = _never
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived from its
        attribute mask."""
        return self.run_scans({}, tasks, expired)

    def run_class_scan(self, mode: str, a: int, b: int,
                       partition: StrippedPartition,
                       expired: Callable[[], bool] = _never
                       ) -> Tuple[bool, bool]:
        """One scan of ``partition`` as a one-task :meth:`run_scans`
        batch; returns ``(verdict, timed_out)``.

        Kept only for the end-to-end benchmark's probe table, which
        looks this name up; executors run a single-dependency scan on
        the calling thread, where it is one τ_A walk."""
        verdicts, timed_out = self.run_scans(
            {0: partition}, [(0, 0, mode, a, b)], expired)
        return all(verdicts.values()), timed_out

    # -- reporting ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregate dispatch telemetry (see also :attr:`dispatches`)."""
        busy = [s for d in self.dispatches
                for s in d["share_busy_seconds"]]
        return {
            "workers": self.workers,
            "n_dispatches": len(self.dispatches),
            "n_tasks": sum(d["n_tasks"] for d in self.dispatches),
            "n_shares": sum(d["n_shares"] for d in self.dispatches),
            "busy_seconds": sum(busy),
            "wall_seconds": sum(d["wall_seconds"]
                                for d in self.dispatches),
            "queue_wait_seconds": sum(d["queue_wait_seconds"]
                                      for d in self.dispatches),
        }


def _share(backend, kind: str, n_tasks: int,
           fn: Callable[[], object]) -> Tuple[object, float]:
    """One share on a pool thread (inside a copy of the caller's
    context): the output of ``fn`` and the seconds it was busy,
    recorded as one ``task`` span."""
    with kernels.activate(backend), profiler.follow():
        started = time.perf_counter()
        output = fn()
        ended = time.perf_counter()
    trace.record_leaf("task", started, ended, kind=kind, tasks=n_tasks,
                      thread=threading.current_thread().name)
    return output, ended - started
