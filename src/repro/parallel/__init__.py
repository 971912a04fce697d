"""Process-parallel lattice execution (shared-memory worker pool).

FASTOD's per-level work — partition products and validation scans —
has no cross-node dependencies, so it shards cleanly across worker
processes.  This package supplies:

* :class:`repro.parallel.pool.WorkerPool` — a persistent pool bound to
  one encoded relation, with the rank columns published once through
  ``multiprocessing.shared_memory`` and per-level partitions published
  per dispatch;
* :func:`repro.parallel.pool.resolve_workers` — the one place the
  ``workers`` knob (``FastODConfig.workers``, CLI ``--workers``, the
  ``REPRO_WORKERS`` environment variable) is interpreted;
* the serial-fallback thresholds ``PARALLEL_MIN_GROUPED_ROWS`` /
  ``PARALLEL_MIN_ROWS`` shared by every consumer, so tiny inputs never
  pay process dispatch overhead.

Results are byte-identical to the serial engine by construction: the
coordinator owns all candidate-set mutations and merges worker results
in deterministic mask order (see DESIGN.md, "Parallel execution").
"""

from repro.parallel.pool import (
    CHUNKS_PER_WORKER,
    PARALLEL_MIN_GROUPED_ROWS,
    PARALLEL_MIN_ROWS,
    PoolDispatchError,
    WorkerCrashError,
    WorkerPool,
    WorkerStallError,
    WorkerTaskError,
    resolve_workers,
)
from repro.parallel.shm import SharedArrayBlock, attach

__all__ = [
    "CHUNKS_PER_WORKER",
    "PARALLEL_MIN_GROUPED_ROWS",
    "PARALLEL_MIN_ROWS",
    "PoolDispatchError",
    "SharedArrayBlock",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerStallError",
    "WorkerTaskError",
    "attach",
    "resolve_workers",
]
