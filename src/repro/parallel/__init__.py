"""Thread-parallel lattice execution.

The nodes of one lattice level are independent (Algorithm 1), so a
level's partition products and its validation scans split cleanly
into shares that run side by side on threads: the kernels release the
GIL.  This package supplies:

* :class:`repro.parallel.pool.WorkerPool` — an in-process thread pool
  bound to one encoded relation;
* :func:`repro.parallel.pool.resolve_workers` — the one place the
  ``workers`` knob (``FastODConfig.workers``, CLI ``--workers``, the
  ``REPRO_WORKERS`` environment variable) is interpreted;
* the dispatch floor ``PARALLEL_MIN_GROUPED_ROWS``, so tiny batches
  never pay the hand-off to threads.

Results are byte-identical to the serial engine by construction: the
coordinator owns all candidate-set mutations and merges share results
keyed by task (see DESIGN.md, "Parallel execution").
"""

from repro.parallel.pool import (
    PARALLEL_MIN_GROUPED_ROWS,
    WorkerPool,
    resolve_workers,
)

__all__ = [
    "PARALLEL_MIN_GROUPED_ROWS",
    "WorkerPool",
    "resolve_workers",
]
