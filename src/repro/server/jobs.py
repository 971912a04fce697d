"""The job scheduler: concurrent submission, serialised execution.

The service accepts jobs from many HTTP threads at once but runs them
one at a time on a single runner thread.  That is a deliberate trade,
not a limitation:

* **one shared** :class:`~repro.parallel.WorkerPool` of threads
  serves every discover job's level products and scan batches.  A
  pool is bound to one encoded relation at a time, so the runner
  rebases it per discover job — safe precisely because execution is
  serialised — and its threads are started once per server instead
  of once per request.  Validate, violations, append and delta jobs
  never touch it: their scans are single-dependency checks, one τ_A
  walk each on the runner thread;
* intra-job parallelism (a level split into shares across the pool's
  threads) already uses every core; running two discoveries
  concurrently would only interleave their shares;
* serialised execution keeps the byte-identical guarantee trivially:
  an interleaved job stream produces exactly the results of running
  each job alone (``tests/parallel/test_shared_pool_jobs.py`` asserts
  this against direct-API runs).

Job lifecycle: ``queued → running → done | failed | cancelled``
(plus terminal ``crashed``, assigned only during journal recovery to
jobs a previous process started but never finished).
Every job carries its own :class:`~repro.engine.DeadlineBudget`;
**only discover traversals consult it** — ``timeout`` bounds a
discover run, and :meth:`JobScheduler.cancel` revokes a *running*
discover's budget cooperatively (the planner stops at its next
check).  Queued jobs of any kind cancel instantly; a running
validate/violations/append has no cooperative check inside its
kernels, so cancelling it returns False and the job completes.
Executor telemetry is surfaced per job — a store-served repeat
request reports a zero-task snapshot, which is how callers (and the
smoke suite) verify no re-traversal happened.

A job that fails carries a one-line ``error``, ``"{Type}: {message}"``.
A :class:`~repro.errors.ReproError` is the library refusing the job's
input (an absent row to delete, a delta that would empty the
dataset); any other exception is a fault, whose traceback goes to a
``job.failed`` event line instead of the job record.
"""

from __future__ import annotations

import math
import queue
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import faults, kernels
from repro.core.fastod import FastOD, FastODConfig
from repro.core.parser import parse_for
from repro.deltalog import DeltaBatch, DeltaLog, delta_log_path
from repro.engine.budget import DeadlineBudget
from repro.errors import DataError, ReproError
from repro.obs import accounting, events, metrics, profiler, trace
from repro.parallel.pool import WorkerPool, resolve_workers
from repro.relation.fingerprint import fingerprint
from repro.server.catalog import DatasetCatalog
from repro.server.journal import JobJournal, JournalError
from repro.server.store import ResultStore
from repro.violations.detect import ViolationDetector

JOB_KINDS = ("discover", "validate", "violations", "append", "delta")

_SUBMITTED = metrics.counter(
    "repro_jobs_submitted_total",
    "Jobs accepted by the scheduler, by kind",
    ("kind",))
_FINISHED = metrics.counter(
    "repro_jobs_finished_total",
    "Jobs reaching a terminal state, by kind and status",
    ("kind", "status"))
_JOB_SECONDS = metrics.histogram(
    "repro_job_seconds",
    "Job wall-clock seconds from start (or submit) to finish, by "
    "kind and terminal status",
    ("kind", "status"))
_QUEUE_DEPTH = metrics.gauge(
    "repro_jobs_queue_depth",
    "Jobs waiting for the runner thread")

#: telemetry reported for store-served requests: no executor ran, so
#: every phase counter is absent — "zero new tasks" by construction
CACHED_EXECUTOR_STATS = {
    "backend": "store",
    "workers": 0,
    "peak_residency_bytes": 0,
    "phases": {},
}

#: Terminal jobs retained in the ledger.  A long-lived server must
#: not pin every historical result payload in memory; the oldest
#: finished jobs (and their payloads) are pruned past this bound,
#: queued/running jobs are always kept.
MAX_FINISHED_JOBS = 512

#: FastODConfig fields a job request may set, with the type of value
#: each takes (a flag must be a boolean; the others may be null, which
#: defers to the default).  Everything else (timeout) has a dedicated
#: job parameter.
_CONFIG_FIELDS = {
    "minimality_pruning": bool, "level_pruning": bool,
    "key_pruning": bool, "max_level": int, "workers": int,
    "parallel_min_grouped_rows": int, "kernel_backend": str,
}


class JobError(ReproError):
    """Malformed job parameters or an unusable scheduler."""


class UnknownJobError(JobError):
    """No job answers to this id (HTTP 404)."""


def cached_executor_stats() -> Dict[str, object]:
    """A fresh zero-task telemetry dict per store-served job (jobs
    must never alias one shared mutable ``phases``)."""
    return {**CACHED_EXECUTOR_STATS, "phases": {}}


def config_from_params(params: Optional[Dict]) -> FastODConfig:
    """Build a :class:`FastODConfig` from a request's config dict,
    rejecting unknown knobs (a typo must not silently change the
    result-store key) and values of the wrong type (``"no"`` is not
    ``False``)."""
    if params is not None and not isinstance(params, dict):
        raise JobError(f"'config' must be an object, got {params!r}")
    params = dict(params or {})
    unknown = set(params) - set(_CONFIG_FIELDS)
    if unknown:
        raise JobError(
            f"unknown config field(s) {sorted(unknown)}; "
            f"supported: {list(_CONFIG_FIELDS)}")
    for field, value in params.items():
        kind = _CONFIG_FIELDS[field]
        if kind is bool:
            valid, expected = isinstance(value, bool), "a boolean"
        elif kind is int:
            valid = value is None or (type(value) is int and value >= 0)
            expected = "a non-negative integer or null"
        else:
            valid = value is None or value in kernels.BACKEND_NAMES
            expected = f"one of {list(kernels.BACKEND_NAMES)} or null"
        if not valid:
            raise JobError(
                f"config field {field!r} must be {expected}, "
                f"got {value!r}")
    return FastODConfig(**params)


def parse_seconds(value, name: str) -> Optional[float]:
    """A request's seconds parameter: ``None``, or a finite
    non-negative number (a boolean is not one)."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:
            seconds = math.inf
        if math.isfinite(seconds) and seconds >= 0:
            return seconds
    raise JobError(f"{name!r} must be a finite non-negative number of "
                   f"seconds or null, got {value!r}")


class Job:
    """One unit of service work and its observable state."""

    __slots__ = ("id", "kind", "fingerprint", "params", "status",
                 "cached", "error", "payload", "executor_stats",
                 "submitted_at", "started_at", "finished_at", "budget",
                 "cancel_requested", "refused", "trace", "trace_id",
                 "profile", "resources", "_done", "_defer_done")

    def __init__(self, job_id: str, kind: str, fingerprint: str,
                 params: Dict):
        self.id = job_id
        self.kind = kind
        self.fingerprint = fingerprint
        self.params = params
        self.status = "queued"
        self.cached = False
        self.error: Optional[str] = None
        self.payload: Optional[Dict] = None
        self.executor_stats: Optional[Dict] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.budget: Optional[DeadlineBudget] = None
        self.cancel_requested = False
        #: True when the job failed on a typed refusal of its input
        #: (:class:`~repro.errors.DataError` or :class:`JobError`)
        self.refused = False
        #: span export of this job's run (``GET /jobs/<id>/trace``);
        #: ``None`` until the job actually ran on the runner thread
        self.trace: Optional[List[Dict]] = None
        #: correlation id tying this job's spans and event lines
        #: together
        self.trace_id = trace.new_trace_id()
        #: collapsed flamegraph text (``GET /jobs/<id>/profile``);
        #: ``None`` until the job ran with observability enabled
        self.profile: Optional[str] = None
        #: per-job resource accounting — CPU and peak RSS of the
        #: process while the job ran (``GET /jobs/<id>``)
        self.resources: Optional[Dict] = None
        self._done = threading.Event()
        #: the runner thread sets this while it owns the job so that
        #: waiters only wake after trace/profile/resources are
        #: attached, not at the handler's in-flight ``_finish``
        self._defer_done = False

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "cancelled", "crashed")

    def _finish(self, status: str) -> None:
        self.status = status
        self.finished_at = time.time()
        _FINISHED.inc(kind=self.kind, status=status)
        _JOB_SECONDS.observe(
            self.finished_at - (self.started_at or self.submitted_at),
            kind=self.kind, status=status)
        if not self._defer_done:
            self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.started_at is not None and self.finished_at is not None:
            payload["seconds"] = self.finished_at - self.started_at
        if self.error is not None:
            payload["error"] = self.error
        if self.payload is not None:
            payload.update(self.payload)
        if self.executor_stats is not None:
            payload["executor"] = self.executor_stats
        if self.resources is not None:
            payload["trace_id"] = self.trace_id
            payload["resources"] = self.resources
        return payload


class JobScheduler:
    """Runs service jobs FIFO on one runner thread and one pool.

    ``workers`` sizes the pool discover jobs share (``None`` defers
    to ``REPRO_WORKERS``; 1 = everything serial, no pool is ever
    created).  ``default_timeout`` bounds jobs that do not bring their
    own ``timeout`` parameter.
    """

    def __init__(self, catalog: DatasetCatalog, store: ResultStore,
                 workers: Optional[int] = None,
                 default_timeout: Optional[float] = None,
                 journal: Optional[JobJournal] = None,
                 delta_dir: Optional[Union[str, Path]] = None):
        self._catalog = catalog
        self._store = store
        self._workers = resolve_workers(workers)
        self._default_timeout = default_timeout
        self._journal = journal
        #: directory whose ``deltalog/`` subdir holds per-dataset WALs
        #: (``None`` = delta jobs apply in memory only, no durability)
        self._delta_dir = Path(delta_dir) if delta_dir is not None else None
        #: root fingerprint -> open WAL handle, created lazily by the
        #: runner thread and closed with the scheduler
        self._delta_logs: Dict[str, DeltaLog] = {}
        self._pool: Optional[WorkerPool] = None
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self.journal_errors = 0
        self._runner = threading.Thread(
            target=self._run_loop, name="repro-od-jobs", daemon=True)
        self._runner.start()

    def _journal_event(self, method: str, *args) -> None:
        """Best-effort journal append: a dying journal volume must not
        take the live scheduler down with it."""
        if self._journal is None:
            return
        try:
            getattr(self._journal, method)(*args)
        except JournalError:
            self.journal_errors += 1

    # ------------------------------------------------------------------
    # submission / polling surface (any thread)
    # ------------------------------------------------------------------
    def submit(self, kind: str, fingerprint: str,
               params: Optional[Dict] = None) -> Job:
        """Queue a job; returns immediately with the job record.

        A ``discover`` whose ``(fingerprint, config)`` is already in
        the result store completes *at submission*: status ``done``,
        ``cached=True``, zero-task executor telemetry, no queue trip.
        """
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r}; supported: {list(JOB_KINDS)}")
        if self._closed:
            raise JobError("the scheduler is shut down")
        params = dict(params or {})
        # validate parameters before the job record exists, so a typo
        # fails the request instead of stranding a queued/failed job
        parse_seconds(params.get("timeout"), "timeout")
        config = (config_from_params(params.get("config"))
                  if kind in ("discover", "append", "delta") else None)
        if kind in ("validate", "violations"):
            dependency = params.get("dependency")
            if not dependency or not isinstance(dependency, str):
                raise JobError(
                    f"{kind} jobs need a 'dependency' string")
        if kind == "violations":
            try:
                params["witnesses"] = int(params.get("witnesses", 5))
            except (TypeError, ValueError):
                raise JobError("'witnesses' must be an integer") \
                    from None
        if kind == "append":
            rows = params.get("rows")
            if not isinstance(rows, (list, tuple)) or not rows:
                raise JobError(
                    "append jobs need a non-empty 'rows' list")
        # resolve forwards now so the job is pinned to live content
        entry = self._catalog.get(fingerprint)
        if kind in ("validate", "violations"):
            # parse and resolve the names against the dataset now, so
            # a malformed dependency or an unknown attribute fails the
            # request instead of the job
            try:
                parse_for(params["dependency"], entry.relation.schema)
            except ReproError as error:
                raise JobError(f"bad {kind}: {error}") from None
        if kind in ("append", "delta"):
            # parse against the entry's arity now, so a bad row fails
            # the request instead of the job.  A delta's convenience
            # lists (inserts/deletes/updates) normalise into one
            # JSON-safe weighted op list — the journal replays it, the
            # WAL records it, and the runner applies it, all verbatim;
            # an append keeps its 'rows' (the runner lowers them to an
            # insert-only delta)
            spec = {"inserts": rows} if kind == "append" else params
            try:
                batch = DeltaBatch.from_request(
                    spec, entry.relation.arity)
            except DataError as error:
                raise JobError(f"bad {kind}: {error}") from None
            if kind == "delta":
                for key in ("inserts", "deletes", "updates"):
                    params.pop(key, None)
                params["ops"] = batch.to_dict()["ops"]
        with self._lock:
            self._next_id += 1
            job = Job(f"job-{self._next_id}", kind, entry.fingerprint,
                      params)
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._prune_finished()
        _SUBMITTED.inc(kind=kind)
        self._journal_event("job_submitted", job.id, kind,
                            entry.fingerprint, params)
        if kind == "discover":
            cached = self._store.get(entry.fingerprint, config)
            if cached is not None:
                job.cached = True
                job.started_at = time.time()
                job.payload = {"result": cached.to_dict()}
                job.executor_stats = cached_executor_stats()
                job._finish("done")
                self._journal_event("job_finished", job.id, "done")
                return job
        self._queue.put(job)
        _QUEUE_DEPTH.set(float(self._queue.qsize()))
        return job

    # ------------------------------------------------------------------
    # journal recovery surface (called before the service goes live)
    # ------------------------------------------------------------------
    def ensure_job_id_floor(self, max_seen: int) -> None:
        """Advance the id sequence past journaled ids so recovered and
        fresh jobs can never collide."""
        with self._lock:
            self._next_id = max(self._next_id, int(max_seen))

    def restore_crashed(self, record: Dict) -> Job:
        """Surface a job a previous process started but never finished
        as terminal ``crashed`` (never silently re-run: an append may
        have had externally visible effects)."""
        job = Job(record["id"], record["kind"], record["fingerprint"],
                  dict(record.get("params") or {}))
        job.error = ("interrupted by a service crash "
                     "(recovered from the journal)")
        job._finish("crashed")
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._journal_event("job_finished", job.id, "crashed")
        return job

    def restore_pending(self, record: Dict) -> Job:
        """Re-queue a journaled job that never started, under its
        original id (already journaled as submitted — no new record)."""
        job = Job(record["id"], record["kind"], record["fingerprint"],
                  dict(record.get("params") or {}))
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
        _SUBMITTED.inc(kind=job.kind)
        self._queue.put(job)
        _QUEUE_DEPTH.set(float(self._queue.qsize()))
        return job

    def _prune_finished(self) -> None:
        """Drop the oldest terminal jobs past ``MAX_FINISHED_JOBS``
        (caller holds the lock).  Live jobs are never dropped."""
        finished = [job_id for job_id in self._order
                    if self._jobs[job_id].finished]
        for job_id in finished[:max(0, len(finished)
                                    - MAX_FINISHED_JOBS)]:
            del self._jobs[job_id]
            self._order.remove(job_id)

    def job(self, job_id: str) -> Job:
        with self._lock:
            found = self._jobs.get(job_id)
        if found is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return found

    def jobs(self) -> List[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs cancel instantly; a *running*
        discover has its deadline budget revoked and stops at the
        traversal's next budget check.  Returns False when the cancel
        cannot take effect — the job already finished, or it is a
        running validate/violations/append/delta (those kernels have
        no cooperative budget checks and will complete)."""
        job = self.job(job_id)
        with self._lock:
            if job.finished:
                return False
            job.cancel_requested = True
            if job.status == "queued":
                job._finish("cancelled")
                self._journal_event("job_finished", job.id, "cancelled")
                return True
            if job.kind != "discover":
                # already running without a budget-consulting kernel:
                # be honest that this request changes nothing
                job.cancel_requested = False
                return False
        if job.budget is not None:
            job.budget.cancel()
        return True

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job finishes (or ``timeout`` elapses)."""
        job = self.job(job_id)
        job.wait(timeout)
        return job

    def stats(self) -> Dict[str, object]:
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": by_status,
            "queued": self._queue.qsize(),
            "workers": self._workers,
            "pool_started": self._pool is not None,
            "journal": (str(self._journal.path)
                        if self._journal is not None else None),
            "journal_errors": self.journal_errors,
        }

    def close(self) -> None:
        """Stop the runner thread and join the shared pool's
        threads."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._runner.join(timeout=30.0)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        for log in self._delta_logs.values():
            log.close()
        self._delta_logs.clear()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution (the runner thread only)
    # ------------------------------------------------------------------
    def _shared_pool(self, encoded) -> Optional[WorkerPool]:
        """The one pool every discover job shares, rebased onto this
        job's relation; ``None`` when the server runs serial."""
        if self._workers < 2:
            return None
        if self._pool is None:
            self._pool = WorkerPool(encoded, self._workers)
        elif self._pool.relation is not encoded:
            self._pool.rebase(encoded)
        return self._pool

    def _run_loop(self) -> None:
        while True:
            job = self._queue.get()
            _QUEUE_DEPTH.set(float(self._queue.qsize()))
            if job is None:
                return
            with self._lock:
                if job.finished:        # cancelled while queued
                    continue
                job.status = "running"
                job.started_at = time.time()
            self._journal_event("job_started", job.id)
            pinned = None
            job._defer_done = True
            buffer = trace.TraceBuffer(trace_id=job.trace_id)
            obs_on = metrics.enabled()
            account = accounting.ResourceAccount() if obs_on else None
            # a per-job profiler targeting this runner thread; the
            # pool threads running the job's shares follow it
            prof = profiler.SamplingProfiler() if obs_on else None
            try:
                # inside the job's isolation: a timeout no submission
                # checked (a job replayed from the journal) fails this
                # job, never the runner thread
                budget = DeadlineBudget(parse_seconds(
                    job.params.get("timeout", self._default_timeout),
                    "timeout"))
                with self._lock:
                    job.budget = budget
                    if job.cancel_requested:
                        budget.cancel()
                # chaos hooks: widen the started→finished crash
                # window, and race a cooperative cancel against
                # whatever the injected faults do to this job's
                # dispatches
                faults.maybe_sleep("jobs.start.delay")
                if faults.fire("budget.cancel"):
                    job.cancel_requested = True
                    budget.cancel()
                if prof is not None:
                    prof.start()
                # pin the entry for the job's whole run: catalog
                # eviction fires on HTTP handler threads and must not
                # close this entry's engines while we use them
                pinned = self._catalog.get(job.fingerprint)
                self._catalog.pin(pinned)
                handler = getattr(self, f"_run_{job.kind}")
                with trace.collect(buffer), profiler.track(prof):
                    with trace.span("job", kind=job.kind, job=job.id):
                        handler(job)
            except Exception as error:   # noqa: BLE001 — job isolation
                job.error = f"{type(error).__name__}: {error}"
                if isinstance(error, ReproError):
                    job.refused = isinstance(error, (DataError, JobError))
                else:
                    events.emit("job.failed", job=job.id, kind=job.kind,
                                error=job.error,
                                traceback=traceback.format_exc())
                job._finish("failed")
            finally:
                job.trace = buffer.export()
                if prof is not None:
                    prof.stop()
                    job.profile = prof.render()
                if account is not None:
                    job.resources = account.finish()
                if pinned is not None:
                    self._catalog.unpin(pinned)
                job._defer_done = False
                if job.finished:
                    job._done.set()
                    self._journal_event("job_finished", job.id,
                                        job.status)
                    if obs_on:
                        events.emit("job.finished", job=job.id,
                                    kind=job.kind, status=job.status,
                                    trace_id=job.trace_id,
                                    resources=job.resources)

    def _finish_ok(self, job: Job, interrupted: bool = False) -> None:
        """``cancelled`` only when the work actually stopped early —
        a cancel that arrives after a job's last budget check still
        yields the completed result as ``done``."""
        if job.cancel_requested and interrupted:
            job._finish("cancelled")
        else:
            job._finish("done")

    def _run_discover(self, job: Job) -> None:
        entry = self._catalog.get(job.fingerprint)
        config = config_from_params(job.params.get("config"))
        result = self._store.get(entry.fingerprint, config)
        if result is not None:          # stored while we were queued
            job.cached = True
            job.payload = {"result": result.to_dict()}
            job.executor_stats = cached_executor_stats()
            self._finish_ok(job)
            return
        pool = self._shared_pool(entry.encoded)
        result = FastOD(entry.relation, config, cache=entry.cache,
                        pool=pool).run(budget=job.budget)
        stored = self._store.put(entry.fingerprint, config, result)
        job.payload = {"result": result.to_dict(), "stored": stored}
        job.executor_stats = result.executor_stats
        self._finish_ok(job, interrupted=result.timed_out)

    def _check(self, job: Job, max_witnesses: int, count_pairs: bool
               ) -> None:
        entry = self._catalog.get(job.fingerprint)
        dependency = job.params.get("dependency")
        if not dependency:
            raise JobError(f"{job.kind} jobs need a 'dependency'")
        detector = ViolationDetector(entry.relation, cache=entry.cache)
        try:
            report = detector.check(
                dependency, max_witnesses=max_witnesses,
                count_pairs=count_pairs)
            job.payload = {"report": report.to_dict()}
            job.executor_stats = detector.executor_stats()
        finally:
            detector.close()
        self._finish_ok(job)

    def _run_validate(self, job: Job) -> None:
        self._check(job, max_witnesses=0, count_pairs=False)

    def _run_violations(self, job: Job) -> None:
        self._check(job,
                    max_witnesses=int(job.params.get("witnesses", 5)),
                    count_pairs=True)

    def _run_append(self, job: Job) -> None:
        self._apply_delta(job, DeltaBatch.inserts(
            job.params.get("rows") or ()))

    def _run_delta(self, job: Job) -> None:
        self._apply_delta(job, DeltaBatch.from_dict(
            {"ops": job.params.get("ops")}))

    def _delta_log(self, root_fp: str) -> Optional[DeltaLog]:
        """The open WAL for one dataset's root fingerprint (runner
        thread only); ``None`` when the service runs without
        durability."""
        if self._delta_dir is None:
            return None
        log = self._delta_logs.get(root_fp)
        if log is None:
            log = DeltaLog(delta_log_path(self._delta_dir, root_fp))
            self._delta_logs[root_fp] = log
        return log

    def _apply_delta(self, job: Job, batch: DeltaBatch) -> None:
        """Apply one weighted batch WAL-first, resolving, folding and
        hashing it once.

        Order matters: (1) fold the batch over the engine's relation
        (pure) — op errors (deleting an absent row) and would-be-empty
        datasets fail the job before anything is logged; (2) durably
        append the batch to the dataset's delta WAL with the fold's
        fingerprint — once the fsync returns, the delta *happened*,
        and a crash anywhere after this line is repaired by boot-time
        replay; (3) hand the same fold to the incremental engine;
        (4) re-key the catalog entry under that fingerprint and evict
        results stored under the retired one (the old key now
        forwards to mutated content, so serving its cached ODs would
        be silently stale).  Nothing changes before the fsync.
        """
        if not len(batch):
            raise JobError(f"{job.kind} jobs need at least one row change")
        entry = self._catalog.get(job.fingerprint)
        config = config_from_params(job.params.get("config"))
        engine = self._catalog.ensure_incremental(entry.fingerprint,
                                                  config)
        old_fp = entry.fingerprint
        fold = batch.fold(engine.relation)
        if fold.relation.n_rows == 0:
            raise JobError(
                "delta would leave the dataset empty; use "
                "re-registration, not deltas, to replace a dataset")
        new_fp = fingerprint(fold.relation)
        log = self._delta_log(entry.root_fingerprint)
        lsn = (log.append(batch, fp_before=old_fp, fp_after=new_fp)
               if log is not None else None)
        report = engine.apply_delta(fold)
        self._catalog.rekey_after_delta(entry, new_fp, lsn=lsn)
        if new_fp != old_fp:
            self._store.invalidate(old_fp)
        stored = self._store.put(new_fp, engine.config, engine.result)
        job.payload = {
            "report": report.to_dict(),
            "fingerprint": new_fp,
            "result": engine.result.to_dict(),
            "stored": stored,
        }
        if lsn is not None:
            job.payload["lsn"] = lsn
        job.executor_stats = engine.executor_stats()
        self._finish_ok(job)


__all__ = [
    "CACHED_EXECUTOR_STATS",
    "JOB_KINDS",
    "Job",
    "JobError",
    "JobScheduler",
    "UnknownJobError",
    "cached_executor_stats",
    "config_from_params",
    "parse_seconds",
]
