"""A persistent shared-memory worker pool for lattice-level execution.

FASTOD's level-wise sweep visits each lattice node independently within
a level: partition products and validation scans have no cross-node
dependencies (Algorithm 1).  :class:`WorkerPool` exploits that by
sharding a level's node work across long-lived ``multiprocessing``
worker processes:

* the encoded relation's rank columns are published **once** per pool
  (per :meth:`rebase` after appends) via
  :mod:`multiprocessing.shared_memory`; workers read zero-copy NumPy
  views, so task payloads never pickle a column;
* per dispatch, the partitions a level needs (parents for products,
  supplied scan contexts) are published as one block and sharded by
  task chunk; a scan whose context is named by attribute mask instead
  derives it from the worker's own partition cache over the shared
  columns;
* **product results return through shared memory too**: the coordinator
  pre-allocates a writable block (the result of ``Π_X · Π_Y`` holds at
  most ``min(||Π*_X||, ||Π*_Y||)`` grouped rows), workers write their
  flat ``rows``/``offsets`` straight into their task's slot, and only
  ``(mask, lengths)`` triples travel back on the result queue;
* scan verdicts are booleans — they ride the queue directly.

There are two dispatch kinds, ``"products"`` and ``"scans"``: every
scan shape (level-wise OCD/FD checks, mask-derived validation waves,
class-sharded single scans) is a :data:`ScanTask` batch handled by one
worker loop.

Determinism: workers run the exact same kernels
(:meth:`StrippedPartition.product`,
:func:`~repro.core.validation.scan_verdicts`, ...) on byte-identical
inputs, and the coordinator merges results keyed by mask/task id and
applies them in the serial engine's order — so a parallel run's
partitions and verdicts are byte-identical to ``workers=1``.

Lifecycle: worker processes start lazily on the first dispatch (a pool
created for a run that never crosses the serial-fallback thresholds
costs only one column publish), and :meth:`shutdown` — also invoked by
a GC finalizer, by ``with`` exit, and on any dispatch error including
``KeyboardInterrupt`` — terminates workers and unlinks every live
shared-memory segment, so crashes cannot leak segments.

Cancellation is cooperative: dispatches carry an optional wall-clock
deadline; workers re-check it between tasks inside a chunk and return
partial results flagged ``timed_out`` instead of scanning past the
budget.
"""

from __future__ import annotations

import os
import queue
import resource
import signal
import time
import traceback
import weakref
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import multiprocessing as mp

import numpy as np

from repro import faults
from repro.errors import ReproError
from repro import kernels
from repro.kernels import thresholds as kernel_thresholds
from repro.obs import accounting, metrics, profiler, trace
from repro.parallel.shm import BlockReader, SharedArrayBlock, unlink_by_name
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation

_DISPATCHES = metrics.counter(
    "repro_pool_dispatches_total",
    "Chunked dispatches sent to the worker pool, by task kind",
    ("kind",))
_DISPATCH_SECONDS = metrics.histogram(
    "repro_pool_dispatch_seconds",
    "Coordinator wall clock per pool dispatch (submit to last "
    "result), by task kind", ("kind",))
_QUEUE_WAIT_SECONDS = metrics.histogram(
    "repro_pool_queue_wait_seconds",
    "Coordinator-observed queueing overhead per dispatch: wall clock "
    "minus the busiest chunk's kernel time, clamped at zero")
_SHM_BYTES = metrics.counter(
    "repro_pool_shm_bytes_total",
    "Bytes published into shared-memory blocks, by payload kind",
    ("payload",))
_CRASHES = metrics.counter(
    "repro_pool_crashes_total",
    "Dispatches that failed and tore the pool down, by failure shape",
    ("shape",))

#: Below this many grouped rows in a dispatch's partitions the callers
#: fall back to the serial path — process dispatch costs ~fractions of
#: a millisecond per chunk plus one segment publish, which only
#: amortizes once the vectorized kernels have real work to chew on.
#: Canonical value (with the crossover measurement) in
#: :mod:`repro.kernels.thresholds`; this module global stays the name
#: read at dispatch time so tests and benchmarks can retune it.
PARALLEL_MIN_GROUPED_ROWS = kernel_thresholds.PARALLEL_MIN_GROUPED_ROWS

#: Relation-row floor for scan batches whose context partitions the
#: workers derive (not known up front, so no grouped-row count).
PARALLEL_MIN_ROWS = kernel_thresholds.PARALLEL_MIN_ROWS

#: Task chunks per worker and dispatch.  Two per worker balances the
#: trade measured on the Exp-1 workloads: more chunks smooth out
#: uneven node costs but repeat per-chunk context materialization
#: (shared parents/contexts are rebuilt in every chunk that touches
#: them), fewer chunks leave stragglers.
CHUNKS_PER_WORKER = 2

#: Dispatch telemetry records kept per pool (ring-buffer style) — far
#: more than one discovery run produces, small enough that a pool held
#: by an unbounded ``watch`` loop cannot accumulate without limit.
MAX_DISPATCH_RECORDS = 512

#: Partition blocks retained for worker reuse.  A level's partitions
#: serve as product parents one level later and as OCD contexts two
#: levels later, and early levels add small ad-hoc publish blocks
#: (singletons, the empty context) — six covers every live reference
#: with headroom; the oldest is unlinked as new levels arrive.
RETAINED_PARTITION_BLOCKS = 6

#: ``(key, context_key, mode, a, b)`` — one scan, the only scan task
#: shape.  A ``context_key`` present in the batch's ``contexts`` names
#: that partition; any other key is an attribute mask whose Π* the
#: executor derives.  Modes: ``"swap"``, ``"const"`` (``a`` constant),
#: ``"swap_desc"`` (descending right column), ``"pointwise"`` (``a`` is
#: an LHS bitmask, ``b`` a target attribute; the context is ignored).
ScanTask = Tuple[Hashable, Hashable, str, int, int]

#: Where a partition's shared replica lives:
#: ``(block name, rows offset, rows len, offsets offset, offsets len)``
#: in int64 items.  Stored on ``StrippedPartition._shm_ref`` so a
#: partition is published once and then referenced by every later
#: dispatch that needs it (products one level up, OCD scans two levels
#: up) instead of being re-copied per level.
PartitionRef = Tuple[str, int, int, int, int]


class PoolDispatchError(ReproError):
    """A dispatch failed mid-flight.  ``partial_results`` holds the
    chunk payloads the coordinator had already collected — verdicts in
    them are *acknowledged* work a recovery layer must not redo."""

    def __init__(self, message: str,
                 partial_results: Optional[List[dict]] = None):
        super().__init__(message)
        self.partial_results: List[dict] = list(partial_results or [])


class WorkerCrashError(PoolDispatchError):
    """A worker process died while a dispatch was in flight.  The
    pool tears itself down on the way out; holders rebuild a fresh
    pool (see :class:`repro.engine.executors.PoolExecutor`, whose
    retry loop re-runs only unacknowledged tasks)."""


class WorkerTaskError(PoolDispatchError):
    """A task raised inside a worker; carries the remote traceback."""


class WorkerStallError(WorkerCrashError):
    """A dispatch made no progress for ``stall_timeout`` seconds while
    every worker stayed alive — a lost/stuck queue message.  Treated
    exactly like a crash by the recovery layer (the pool is rebuilt
    and unacknowledged tasks re-run)."""


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


def _chunk_slices(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` slices covering ``n_items``."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = np.linspace(0, n_items, n_chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_MAX_ATTACHMENTS = 6

#: Span-ring capacity per worker task: one "task" root plus one leaf
#: per kernel call and shm attach.  Bounded so a giant chunk ships a
#: bounded export back on the result queue (the freshest spans win).
_WORKER_SPAN_CAPACITY = 512


class _WorkerState:
    """Per-process caches: attached segments, the published relations
    and their partition caches."""

    def __init__(self):
        self.readers: "OrderedDict[str, BlockReader]" = OrderedDict()
        self.caches: "OrderedDict[str, object]" = OrderedDict()
        self.relations: "OrderedDict[str, EncodedRelation]" = \
            OrderedDict()

    def reader(self, name: str) -> BlockReader:
        reader = self.readers.pop(name, None)
        if reader is None:
            # the attach is span-worthy: it is the one worker-side op
            # whose cost scales with segment churn rather than task
            # size (no-op span outside an observed task / REPRO_OBS=0)
            with trace.span("shm-attach", block=name):
                reader = BlockReader(name)
        self.readers[name] = reader          # most-recently-used last
        while len(self.readers) > _MAX_ATTACHMENTS:
            _, stale = self.readers.popitem(last=False)
            stale.close()
        return reader

    def relation(self, descriptor) -> EncodedRelation:
        """The relation of one published column block, its rank
        columns copied onto this worker's heap on first use.

        The copy is deliberate: columns are the random-gather targets
        of every scan kernel, and heap pages (hugepage-backed, hot in
        this process) gather measurably faster than tmpfs-backed
        shared-memory pages.  One memcpy per worker per pool still
        beats pickling columns into every task by orders of magnitude.
        The relation sorts τ_A per attribute on first use
        (:meth:`EncodedRelation.order`), so the orders live, and are
        evicted, with the columns.
        """
        name, layout, n_rows, arity = descriptor
        relation = self.relations.get(name)
        if relation is None:
            reader = self.reader(name)
            relation = EncodedRelation(
                tuple(f"a{i}" for i in range(arity)),
                [np.array(reader.array(layout, a)) for a in range(arity)])
            if relation.n_rows != n_rows:  # pragma: no cover - paranoia
                raise ValueError("shared column length mismatch")
            # keep the current and (briefly, across a rebase) previous
            # relation
            while len(self.relations) >= 2:
                self.relations.popitem(last=False)
            self.relations[name] = relation
        return relation

    def partition_cache(self, descriptor):
        """A worker-local :class:`PartitionCache` over the shared
        columns (scan tasks that name their context by mask)."""
        from repro.partitions.cache import PartitionCache

        name = descriptor[0]
        cache = self.caches.get(name)
        if cache is None:
            cache = PartitionCache(self.relation(descriptor),
                                   max_entries=128)
            # cap at the two most recent relations (pre/post rebase)
            while len(self.caches) >= 2:
                self.caches.pop(next(iter(self.caches)))
            self.caches[name] = cache
        return cache


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.time() > deadline


def _partition_from_ref(state: _WorkerState, ref: PartitionRef,
                        n_rows: int) -> StrippedPartition:
    name, rows_off, rows_len, offs_off, offs_len = ref
    reader = state.reader(name)
    return StrippedPartition.from_flat(
        reader.raw(rows_off, rows_len),
        reader.raw(offs_off, offs_len), n_rows)


def _handle_products(state: _WorkerState, payload: dict) -> dict:
    out_name, out_layout = payload["out"]
    n_rows = payload["n_rows"]
    deadline = payload["deadline"]
    out_reader = state.reader(out_name)
    refs: Dict[int, PartitionRef] = payload["parents"]
    parents: Dict[int, StrippedPartition] = {}

    def parent(mask: int) -> StrippedPartition:
        partition = parents.get(mask)
        if partition is None:
            partition = _partition_from_ref(state, refs[mask], n_rows)
            parents[mask] = partition
        return partition

    done: List[Tuple[int, int, int]] = []
    timed_out = False
    for child, left, right in payload["tasks"]:
        if _past(deadline):
            timed_out = True
            break
        product = parent(left).product(parent(right))
        rows_view = out_reader.array(out_layout, (child, "r"))
        offsets_view = out_reader.array(out_layout, (child, "o"))
        rows_view[:len(product.rows)] = product.rows
        offsets_view[:len(product.offsets)] = product.offsets
        done.append((child, len(product.rows), len(product.offsets)))
    return {"done": done, "timed_out": timed_out}


def _handle_scans(state: _WorkerState, payload: dict) -> dict:
    """The worker half of :meth:`WorkerPool.run_scans`: the same batch
    function the coordinator runs
    (:func:`repro.core.validation.scan_verdicts`), so unknown modes
    fail loudly at any worker count."""
    from repro.core.validation import scan_verdicts

    descriptor = payload["columns"]
    refs: Dict[Hashable, PartitionRef] = payload["contexts"]
    deadline = payload["deadline"]

    # one partition object per context key, so derived state (class
    # ids, class sizes) is shared by every task scanning it
    contexts: Dict[Hashable, StrippedPartition] = {}

    def context_of(context_key: Hashable) -> StrippedPartition:
        context = contexts.get(context_key)
        if context is None:
            ref = refs.get(context_key)
            context = contexts[context_key] = (
                state.partition_cache(descriptor).get(context_key)
                if ref is None else
                _partition_from_ref(state, ref, descriptor[2]))
        return context

    verdicts, timed_out = scan_verdicts(
        state.relation(descriptor), payload["tasks"], context_of,
        lambda: _past(deadline))
    return {"verdicts": list(verdicts.items()), "timed_out": timed_out}


_HANDLERS = {
    "products": _handle_products,
    "scans": _handle_scans,
}


def _run_task_observed(state: _WorkerState, kind: str, payload: dict,
                       obs_ctx: dict) -> dict:
    """Run one chunk under worker-local observability.

    Everything the coordinator cannot see from its side of the queue
    is captured here: a private span ring rooted in a ``task`` span
    (kernel calls and shm attaches land under it), the ambient
    sampling profiler's per-task count delta, and a ``getrusage``
    delta — exported on the result dict as ``"_obs"`` together with
    the worker-clock ``(enter, exit)`` edges the coordinator needs to
    rebase the spans onto its own monotonic epoch.

    Only runs when the dispatching coordinator attached an ``"obs"``
    context to the payload — under ``REPRO_OBS=0`` no context is ever
    attached and tasks take the bare path with zero extra payload
    bytes in either direction.
    """
    enter = time.perf_counter()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    prof = profiler.ambient()
    profile_base = prof.counts()
    buffer = trace.TraceBuffer(capacity=_WORKER_SPAN_CAPACITY,
                               trace_id=obs_ctx.get("trace_id"))
    kernels.set_kernel_spans(True)
    try:
        with trace.collect(buffer):
            with trace.span("task", kind=kind, pid=os.getpid(),
                            tasks=len(payload.get("tasks", ()))):
                with kernels.activate(payload.get("kernels")):
                    result = _HANDLERS[kind](state, payload)
    finally:
        kernels.set_kernel_spans(False)
    prof.sample_once()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result["_obs"] = {
        "spans": buffer.export(),
        "clock": (enter, time.perf_counter()),
        "rusage": (ru1.ru_utime - ru0.ru_utime,
                   ru1.ru_stime - ru0.ru_stime,
                   accounting.maxrss_bytes(ru1.ru_maxrss)),
        "profile": profiler.subtract(prof.counts(), profile_base),
        "pid": os.getpid(),
    }
    return result


def _worker_main(task_queue, result_queue) -> None:
    state = _WorkerState()
    while True:
        message = task_queue.get()
        if message is None:
            break
        task_id, kind, payload = message
        started = time.process_time()
        try:
            faults.maybe_raise("worker.task",
                               f"injected failure in {kind!r} handler")
            obs_ctx = payload.get("obs")
            if obs_ctx is not None:
                result = _run_task_observed(state, kind, payload,
                                            obs_ctx)
            else:
                # run the chunk under the coordinator-resolved kernel
                # backend, so verdicts are computed by the same
                # kernels at every worker count
                with kernels.activate(payload.get("kernels")):
                    result = _HANDLERS[kind](state, payload)
        except BaseException:
            result_queue.put(
                (task_id, "err", traceback.format_exc(), 0.0))
            continue
        result_queue.put(
            (task_id, "ok", result, time.process_time() - started))
    for reader in state.readers.values():
        reader.close()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def _shutdown_static(processes: List, task_queue, block_names: set,
                     owner_pid: int) -> None:
    """Idempotent teardown shared by shutdown(), GC and atexit.

    Only the process that created the pool (``owner_pid``) owns its
    workers and segments.  A forked child tearing down its inherited
    copy forgets them and touches nothing: no sentinel on the shared
    task queue, no unlink of a segment the owner still serves.
    """
    if os.getpid() != owner_pid:
        processes.clear()
        block_names.clear()
        return
    try:
        for _ in processes:
            try:
                task_queue.put_nowait(None)
            except Exception:
                break
    except Exception:  # pragma: no cover
        pass
    for process in processes:
        process.join(timeout=1.0)
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
    processes.clear()
    for name in list(block_names):
        unlink_by_name(name)
        block_names.discard(name)


class WorkerPool:
    """Shared-memory process pool bound to one encoded relation.

    ``with WorkerPool(encoded, workers=4) as pool: ...`` — or call
    :meth:`shutdown` explicitly.  The pool is *persistent*: one set of
    workers serves every level of a discovery run (and every run that
    reuses the pool), with the rank columns published exactly once.
    """

    def __init__(self, relation: EncodedRelation, workers: int,
                 start_method: Optional[str] = None,
                 n_chunks_per_dispatch: Optional[int] = None,
                 stall_timeout: Optional[float] = None,
                 kernel_backend: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self._relation = relation
        self.workers = workers
        #: kernels backend name stamped into every chunk payload;
        #: ``None`` resolves to the coordinator's active backend at
        #: dispatch time, so serial and pooled kernels always agree
        self.kernel_backend = kernel_backend
        #: seconds without any dispatch progress (no result, workers
        #: all alive) before the dispatch fails with a typed
        #: :class:`WorkerStallError` instead of hanging on a lost
        #: queue message.  ``None`` (the default) never stalls out —
        #: legitimate tasks may run arbitrarily long.
        self.stall_timeout = stall_timeout
        #: chunk count per dispatch; overriding it decouples chunk
        #: granularity from the worker count (the benchmark's
        #: work-distribution projection measures N-worker chunks in one
        #: uncontended worker)
        self.n_chunks_per_dispatch = (
            workers * CHUNKS_PER_WORKER if n_chunks_per_dispatch is None
            else max(1, n_chunks_per_dispatch))
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self._ctx = mp.get_context(start_method)
        self._processes: List = []
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._next_task_id = 0
        self._live_blocks: set = set()
        #: recently published partition blocks, oldest first; partitions
        #: carry ``_shm_ref`` pointers into them so one publication
        #: serves products one level up and OCD scans two levels up
        self._partition_blocks: "OrderedDict[str, SharedArrayBlock]" = \
            OrderedDict()
        #: per-dispatch telemetry: kind, tasks, chunks, per-chunk busy
        #: CPU seconds, publish seconds, wall seconds — the currency of
        #: the hardware-independent benchmark gate
        self.dispatches: List[Dict[str, object]] = []
        self._columns_block: Optional[SharedArrayBlock] = None
        self._columns_descriptor = None
        self._closed = False
        self._owner_pid = os.getpid()
        self._publish_columns()
        self._finalizer = weakref.finalize(
            self, _shutdown_static, self._processes, self._task_queue,
            self._live_blocks, self._owner_pid)

    # -- lifecycle -----------------------------------------------------
    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    def _publish_columns(self) -> None:
        """Copy the relation's rank columns into a fresh pool-owned
        segment (one memcpy per column), replacing and unlinking the
        previous relation's."""
        relation = self._relation
        old = self._columns_block
        block = SharedArrayBlock.publish(relation.rank_arrays())
        _SHM_BYTES.inc(block.nbytes, payload="columns")
        self._live_blocks.add(block.name)
        self._columns_block = block
        self._columns_descriptor = (
            block.name, block.layout, relation.n_rows, relation.arity)
        if old is not None:
            self._live_blocks.discard(old.name)
            old.close_and_unlink()

    def rebase(self, relation: EncodedRelation) -> None:
        """Point the pool at a grown relation (the incremental append
        path): republish the columns and drop every retained partition
        block (their row universe is stale); workers re-attach lazily
        on their next task and drop stale mappings."""
        self._relation = relation
        self._publish_columns()
        while self._partition_blocks:
            _, block = self._partition_blocks.popitem(last=False)
            self._live_blocks.discard(block.name)
            block.close_and_unlink()

    def _retain(self, block: SharedArrayBlock) -> None:
        self._partition_blocks[block.name] = block
        self._live_blocks.add(block.name)
        while len(self._partition_blocks) > RETAINED_PARTITION_BLOCKS:
            _, stale = self._partition_blocks.popitem(last=False)
            self._live_blocks.discard(stale.name)
            stale.close_and_unlink()

    def _ensure_shared(self, partitions: Dict[Hashable, StrippedPartition]
                       ) -> Dict[Hashable, PartitionRef]:
        """Shared-memory refs for ``partitions``, publishing the ones
        (in one batch block) that have no live replica yet."""
        refs: Dict[Hashable, PartitionRef] = {}
        missing: Dict[Hashable, StrippedPartition] = {}
        for key, partition in partitions.items():
            ref = partition._shm_ref
            if ref is not None and ref[0] in self._partition_blocks:
                refs[key] = ref
            else:
                missing[key] = partition
        if missing:
            arrays: Dict[Hashable, np.ndarray] = {}
            for key, partition in missing.items():
                arrays[(key, "r")] = partition.rows
                arrays[(key, "o")] = partition.offsets
            block = SharedArrayBlock.publish(arrays)
            _SHM_BYTES.inc(block.nbytes, payload="partitions")
            self._retain(block)
            for key, partition in missing.items():
                rows_off, rows_len = block.layout[(key, "r")]
                offs_off, offs_len = block.layout[(key, "o")]
                ref = (block.name, rows_off, rows_len, offs_off, offs_len)
                partition._shm_ref = ref
                refs[key] = ref
        return refs

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran (including the error-path
        teardown after a crash); a closed pool never restarts — holders
        drop it and build a fresh one."""
        return self._closed

    def _ensure_started(self) -> None:
        if self._closed:
            raise WorkerCrashError(
                "the worker pool has been shut down; create a new one")
        if self._processes:
            return
        for index in range(self.workers):
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._task_queue, self._result_queue),
                name=f"repro-worker-{index}", daemon=True)
            process.start()
            self._processes.append(process)

    def shutdown(self) -> None:
        """Terminate workers and unlink every live segment (idempotent).

        The pool is unusable afterwards (:attr:`closed`); stale
        partition refs are dropped so nothing can resolve against the
        unlinked segments."""
        self._closed = True
        _shutdown_static(self._processes, self._task_queue,
                         self._live_blocks, self._owner_pid)
        self._partition_blocks.clear()
        self._columns_block = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- dispatch machinery --------------------------------------------
    def _submit(self, kind: str, payload: dict) -> int:
        task_id = self._next_task_id
        self._next_task_id += 1
        faults.maybe_sleep("pool.queue.delay")
        if faults.fire("pool.queue.drop"):
            # the chunk vanishes off the queue; with a stall_timeout
            # the dispatch surfaces this as WorkerStallError
            return task_id
        self._task_queue.put((task_id, kind, payload))
        return task_id

    def _check_alive(self) -> None:
        for process in self._processes:
            if not process.is_alive():
                raise WorkerCrashError(
                    f"worker {process.name} died "
                    f"(exitcode {process.exitcode})")

    def _kill_one_worker(self) -> None:
        """Chaos hook: SIGKILL the first live worker mid-dispatch."""
        for process in self._processes:
            if process.is_alive() and process.pid is not None:
                os.kill(process.pid, signal.SIGKILL)
                return

    def _drain_nowait(self, results: Dict[int, Tuple[dict, float]],
                      pending: set) -> None:
        """Best-effort harvest of results already on the queue (the
        crash path runs this so acknowledged work is not re-run)."""
        while True:
            try:
                message = self._result_queue.get_nowait()
            except (queue.Empty, OSError):
                return
            task_id, status, payload, busy = message
            if status == "ok" and task_id in pending:
                pending.discard(task_id)
                results[task_id] = (payload, busy)

    def _collect(self, pending: set,
                 ack_times: Optional[Dict[int, float]] = None
                 ) -> Dict[int, Tuple[dict, float]]:
        results: Dict[int, Tuple[dict, float]] = {}
        last_progress = time.monotonic()
        while pending:
            try:
                message = self._result_queue.get(timeout=0.2)
            except queue.Empty:
                try:
                    self._check_alive()
                except WorkerCrashError as crash:
                    self._drain_nowait(results, pending)
                    crash.partial_results = [
                        payload for payload, _ in results.values()]
                    raise
                if (self.stall_timeout is not None
                        and time.monotonic() - last_progress
                        > self.stall_timeout):
                    raise WorkerStallError(
                        f"dispatch made no progress for "
                        f"{self.stall_timeout:.1f}s with {len(pending)} "
                        f"chunk(s) outstanding (lost queue message?)",
                        partial_results=[
                            payload for payload, _ in results.values()])
                continue
            last_progress = time.monotonic()
            task_id, status, payload, busy = message
            if ack_times is not None:
                # the coordinator-side ack edge of this chunk: one half
                # of the clock-rebase window worker spans are spliced on
                ack_times[task_id] = time.perf_counter()
            if status == "err":
                raise WorkerTaskError(
                    f"a parallel task failed in a worker:\n{payload}",
                    partial_results=[
                        p for p, _ in results.values()])
            if task_id in pending:
                pending.discard(task_id)
                results[task_id] = (payload, busy)
        return results

    def _dispatch(self, kind: str,
                  payloads: Sequence[dict]) -> List[Tuple[dict, float]]:
        """Run chunk payloads across the pool; any failure — a worker
        crash, a remote exception, or a coordinator-side interrupt —
        tears the pool down before propagating, so no segment leaks.
        Crash-shaped failures carry the already-acknowledged chunk
        payloads (:attr:`PoolDispatchError.partial_results`) so the
        recovery layer re-runs only the lost tasks."""
        self._ensure_started()
        started = time.perf_counter()
        with trace.span("pool-dispatch", kind=kind,
                        chunks=len(payloads)):
            # short-circuit *before* serialization: under REPRO_OBS=0
            # no obs context rides out and no span/rusage export rides
            # back — worker payloads stay byte-for-byte lean
            obs_on = metrics.enabled()
            submit_times: Dict[int, float] = {}
            ack_times: Dict[int, float] = {}
            if obs_on:
                obs_ctx = {
                    "trace_id": trace.current_buffer().trace_id,
                    "span": trace.current_span_id(),
                }
                for payload in payloads:
                    payload["obs"] = obs_ctx
            try:
                # fail fast if a worker already died: a silently
                # shrunken pool would still drain the queue, degraded
                self._check_alive()
                pending = set()
                for payload in payloads:
                    task_id = self._submit(kind, payload)
                    submit_times[task_id] = time.perf_counter()
                    pending.add(task_id)
                if faults.fire("pool.worker.kill"):
                    self._kill_one_worker()
                ordered = sorted(pending)
                results = self._collect(
                    pending, ack_times if obs_on else None)
            except BaseException as error:
                if isinstance(error, WorkerStallError):
                    _CRASHES.inc(shape="stall")
                elif isinstance(error, WorkerTaskError):
                    _CRASHES.inc(shape="task-error")
                elif isinstance(error, WorkerCrashError):
                    _CRASHES.inc(shape="crash")
                else:
                    _CRASHES.inc(shape="interrupt")
                self.shutdown()
                raise
            if obs_on:
                self._absorb_obs(results, submit_times, ack_times,
                                 started)
        wall = time.perf_counter() - started
        busy = [results[i][1] for i in ordered]
        # the coordinator-observed queueing overhead: everything the
        # dispatch spent beyond its busiest chunk's kernel time
        # (queue put/get, pickling, worker pickup latency)
        queue_wait = max(0.0, wall - (max(busy) if busy else 0.0))
        record = {
            "kind": kind,
            "n_tasks": sum(len(p["tasks"]) for p in payloads),
            "n_chunks": len(payloads),
            "chunk_busy_seconds": busy,
            "wall_seconds": wall,
            "queue_wait_seconds": queue_wait,
        }
        _DISPATCHES.inc(kind=kind)
        _DISPATCH_SECONDS.observe(wall, kind=kind)
        _QUEUE_WAIT_SECONDS.observe(queue_wait)
        self.dispatches.append(record)
        if len(self.dispatches) > MAX_DISPATCH_RECORDS:
            del self.dispatches[:len(self.dispatches)
                                - MAX_DISPATCH_RECORDS]
        return [results[i][0] for i in ordered]

    def _absorb_obs(self, results: Dict[int, Tuple[dict, float]],
                    submit_times: Dict[int, float],
                    ack_times: Dict[int, float],
                    started: float) -> None:
        """Fold each chunk's worker-shipped ``"_obs"`` export into the
        coordinator's observability state.

        Runs *inside* the open ``pool-dispatch`` span: worker spans
        are spliced under it with their clocks rebased against the
        chunk's own submit/ack edges, and worker rusage/profile deltas
        are billed to the current job's resource account.  The export
        is popped off the result payload so callers never see it.
        """
        buffer = trace.current_buffer()
        parent = trace.current_span_id()
        account = accounting.current()
        now = time.perf_counter()
        for task_id, (payload, _busy) in results.items():
            if not isinstance(payload, dict):
                continue
            obs = payload.pop("_obs", None)
            if not obs:
                continue
            window = (submit_times.get(task_id, started),
                      ack_times.get(task_id, now))
            trace.splice(buffer, obs.get("spans") or (), parent,
                         window, clock=obs.get("clock"))
            if account is not None and obs.get("rusage") is not None:
                utime, stime, maxrss = obs["rusage"]
                account.add_worker(utime, stime, maxrss,
                                   obs.get("pid", 0),
                                   profile=obs.get("profile"))

    def _payload_kernels(self) -> str:
        """The kernel backend name stamped into chunk payloads: the
        pool's pinned backend, else whatever backend is active on the
        coordinator right now (resolved, not ``"auto"`` — workers must
        not re-decide)."""
        if self.kernel_backend:
            return kernels.resolve_backend(self.kernel_backend).name
        return kernels.active_backend_name()

    @staticmethod
    def _wall_deadline(deadline: Optional[float]) -> Optional[float]:
        """Translate a coordinator ``perf_counter`` deadline into the
        wall-clock currency workers can compare against."""
        if deadline is None:
            return None
        return time.time() + (deadline - time.perf_counter())

    # -- level operations ----------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     triples: Sequence[Tuple[int, int, int]],
                     deadline: Optional[float] = None
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """Compute ``Π_left · Π_right`` for every ``(child, left,
        right)`` triple, sharded across workers.  Returns the products
        plus a flag set when the cooperative ``deadline`` cut workers
        short (the dict then covers a subset of the triples).

        Parents are referenced by their live shared replicas (published
        in batch only if missing — typically just the level-1
        singletons, since later parents were themselves produced here).
        Results come back through a pre-allocated writable block sized
        by the product bound ``||Π_X·Π_Y|| <= min(||Π_X||, ||Π_Y||)``;
        the coordinator copies them onto the heap and tags each copy
        with a ref into the retained block, so the next two levels
        (products, then OCD scans) reuse the replica without another
        publish.
        """
        # contiguous chunks of (left, right)-sorted tasks keep each
        # parent's derived probe tables (row_to_class) inside as few
        # chunks as possible — workers rebuild them per chunk
        triples = sorted(triples, key=lambda t: (t[1], t[2]))
        needed = {left for _, left, _ in triples}
        needed.update(right for _, _, right in triples)
        publish_started = time.perf_counter()
        parent_refs = self._ensure_shared(
            {mask: parents[mask] for mask in needed})
        capacities: Dict[Hashable, int] = {}
        for child, left, right in triples:
            bound = min(len(parents[left].rows), len(parents[right].rows))
            capacities[(child, "r")] = bound
            capacities[(child, "o")] = bound // 2 + 2
        out_block = SharedArrayBlock.allocate(capacities)
        _SHM_BYTES.inc(out_block.nbytes, payload="products")
        self._retain(out_block)
        publish_seconds = time.perf_counter() - publish_started
        wall_deadline = self._wall_deadline(deadline)

        payloads = []
        for start, stop in _chunk_slices(
                len(triples), self.n_chunks_per_dispatch):
            chunk = list(triples[start:stop])
            chunk_parents = {mask: parent_refs[mask]
                             for _, left, right in chunk
                             for mask in (left, right)}
            out_keys = [key for child, _, _ in chunk
                        for key in ((child, "r"), (child, "o"))]
            payloads.append({
                "parents": chunk_parents,
                "out": out_block.descriptor(out_keys),
                "n_rows": self._relation.n_rows,
                "tasks": chunk,
                "deadline": wall_deadline,
                "kernels": self._payload_kernels(),
            })
        chunk_results = self._dispatch("products", payloads)
        self.dispatches[-1]["publish_seconds"] = publish_seconds
        products: Dict[int, StrippedPartition] = {}
        timed_out = False
        n_rows = self._relation.n_rows
        for result in chunk_results:
            timed_out |= result["timed_out"]
            for child, rows_len, offsets_len in result["done"]:
                rows_off, _cap = out_block.layout[(child, "r")]
                offs_off, _ocap = out_block.layout[(child, "o")]
                rows = np.array(out_block.raw(rows_off, rows_len))
                offsets = np.array(out_block.raw(offs_off, offsets_len))
                partition = StrippedPartition.from_flat(
                    rows, offsets, n_rows)
                partition._shm_ref = (out_block.name, rows_off, rows_len,
                                      offs_off, offsets_len)
                products[child] = partition
        return products, timed_out

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask],
                  deadline: Optional[float] = None
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        """Run :data:`ScanTask` batches, sharded across workers.

        Returns per-key verdicts plus a flag set when the cooperative
        deadline cut workers short (verdicts then cover a prefix of
        each chunk).  A task whose ``context_key`` is in ``contexts``
        scans that partition: one with a live shared replica (anything
        a products dispatch built two levels ago) is referenced in
        place, the rest are published.  Any other ``context_key`` is an
        attribute mask each worker derives from its own shared-column
        :class:`PartitionCache`.  Tasks are grouped by context before
        chunking so each worker builds a context's derived state at
        most once.
        """
        publish_started = time.perf_counter()
        context_refs = self._ensure_shared(contexts)
        publish_seconds = time.perf_counter() - publish_started
        wall_deadline = self._wall_deadline(deadline)
        tasks = sorted(tasks, key=lambda t: (repr(t[1]), repr(t[0])))
        payloads = []
        for start, stop in _chunk_slices(
                len(tasks), self.n_chunks_per_dispatch):
            chunk = list(tasks[start:stop])
            payloads.append({
                "columns": self._columns_descriptor,
                "contexts": {context_key: context_refs[context_key]
                             for _, context_key, _, _, _ in chunk
                             if context_key in context_refs},
                "tasks": chunk,
                "deadline": wall_deadline,
                "kernels": self._payload_kernels(),
            })
        chunk_results = self._dispatch("scans", payloads)
        self.dispatches[-1]["publish_seconds"] = publish_seconds
        verdicts: Dict[Hashable, bool] = {}
        timed_out = False
        for result in chunk_results:
            timed_out |= result["timed_out"]
            verdicts.update(result["verdicts"])
        return verdicts, timed_out

    def run_validations(self, tasks: Sequence[ScanTask],
                        deadline: Optional[float] = None
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:meth:`run_scans` with every context derived by the
        workers from its attribute mask (the hybrid escalation
        waves)."""
        return self.run_scans({}, tasks, deadline)

    def run_class_scan(self, mode: str, a: int, b: int,
                       partition: StrippedPartition,
                       deadline: Optional[float] = None
                       ) -> Tuple[bool, bool]:
        """One big scan sharded by context class (the single-dependency
        path behind ``check``/``violations`` and incremental
        revalidation), as one :meth:`run_scans` batch: classes are
        split into contiguous chunks of near-equal grouped rows, and
        each chunk is a supplied context — a valid stripped partition
        in its own right, so workers run the stock kernels.  Returns
        ``(verdict, timed_out)``."""
        offsets = partition.offsets
        n_chunks = max(1, min(self.workers * 2, partition.n_classes))
        targets = np.linspace(0, len(partition.rows), n_chunks + 1)
        bounds = np.unique(np.searchsorted(offsets, targets[1:-1]))
        class_bounds = [0, *[int(b) for b in bounds], partition.n_classes]
        contexts: Dict[Hashable, StrippedPartition] = {}
        tasks: List[ScanTask] = []
        for index in range(len(class_bounds) - 1):
            lo, hi = class_bounds[index], class_bounds[index + 1]
            if lo >= hi:
                continue
            chunk = StrippedPartition.from_flat(
                partition.rows[offsets[lo]:offsets[hi]],
                offsets[lo:hi + 1] - offsets[lo], partition.n_rows)
            contexts[index] = chunk
            tasks.append((index, index, mode, a, b))
        if not tasks:
            return True, False
        verdicts, timed_out = self.run_scans(contexts, tasks, deadline)
        return all(verdicts.values()), timed_out

    # -- reporting ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregate dispatch telemetry (see also :attr:`dispatches`)."""
        busy = [s for d in self.dispatches
                for s in d["chunk_busy_seconds"]]
        return {
            "workers": self.workers,
            "n_dispatches": len(self.dispatches),
            "n_tasks": sum(d["n_tasks"] for d in self.dispatches),
            "n_chunks": sum(d["n_chunks"] for d in self.dispatches),
            "busy_seconds": sum(busy),
            "wall_seconds": sum(d["wall_seconds"]
                                for d in self.dispatches),
            "queue_wait_seconds": sum(
                d.get("queue_wait_seconds", 0.0)
                for d in self.dispatches),
        }
