"""Per-phase executor telemetry.

Every executor carries one :class:`ExecutorTelemetry` and records, per
planner phase (``products``, ``products-implied``, ``fd-check``,
``ocd-scan``, ``ocd-keyprune``, ``wave``, ``class-scan``, ``recheck``,
...), how many typed tasks it resolved, whether each batch ran on the
calling thread or on the thread pool, and how long the batches took.
``products`` counts built partition products; ``products-implied``
counts the lattice children that shared a parent's partition because
an emitted FD implied it, and ``ocd-keyprune`` the OCD candidates a
superkey context settled (neither reaches a kernel).  ``recheck``
bills an incremental append's re-check of the held ODs: one task per
held OD for building the contexts (their products and level 1's rank
sorts), then one per OD the scan batch re-checked.

The snapshot is a plain JSON-ready dict so every entry point can
expose it uniformly — ``DiscoveryResult.executor_stats``,
``repro-od ... --json``, and the validator/detector accessors all
serve the same shape.

Each record also bills the process-wide metrics registry
(:mod:`repro.obs.metrics`), so a live ``repro-od serve`` exposes the
same task/latency truth at ``/metrics`` without a second accounting
path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import metrics

_TASKS = metrics.counter(
    "repro_executor_tasks_total",
    "Typed tasks resolved, by planner phase and execution mode",
    ("phase", "mode"))
_DISPATCHES = metrics.counter(
    "repro_executor_dispatches_total",
    "Task batches dispatched, by planner phase", ("phase",))
_PHASE_SECONDS = metrics.histogram(
    "repro_executor_phase_seconds",
    "Wall-clock seconds per dispatched batch, by planner phase",
    ("phase",))


class ExecutorTelemetry:
    """Counters for one executor's lifetime (cheap, always on)."""

    __slots__ = ("backend", "workers", "phases", "peak_residency_bytes")

    def __init__(self, backend: str, workers: int):
        self.backend = backend
        self.workers = workers
        #: phase -> {"tasks", "serial_tasks", "pool_tasks",
        #: "dispatches", "seconds"}
        self.phases: Dict[str, Dict[str, float]] = {}
        #: largest resident partition footprint observed (bytes); fed by
        #: the planner's per-level residency accounting
        self.peak_residency_bytes = 0

    def record(self, phase: str, n_tasks: int, pooled: bool,
               seconds: float = 0.0) -> None:
        """Bill one batch of ``n_tasks`` resolved tasks (and the wall
        clock the batch took) to ``phase``."""
        if n_tasks <= 0:
            return
        stats = self.phases.get(phase)
        if stats is None:
            stats = {"tasks": 0, "serial_tasks": 0, "pool_tasks": 0,
                     "dispatches": 0, "seconds": 0.0}
            self.phases[phase] = stats
        stats["tasks"] += n_tasks
        stats["pool_tasks" if pooled else "serial_tasks"] += n_tasks
        stats["dispatches"] += 1
        stats["seconds"] += seconds
        _TASKS.inc(n_tasks, phase=phase,
                   mode="pool" if pooled else "serial")
        _DISPATCHES.inc(phase=phase)
        _PHASE_SECONDS.observe(seconds, phase=phase)

    def observe_residency(self, n_bytes: int) -> None:
        if n_bytes > self.peak_residency_bytes:
            self.peak_residency_bytes = n_bytes

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy (the ``executor_stats`` currency)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "peak_residency_bytes": self.peak_residency_bytes,
            "phases": {phase: dict(stats)
                       for phase, stats in self.phases.items()},
        }


def total_tasks(snapshot: Dict) -> int:
    """Total resolved tasks in an ``executor_stats`` snapshot — the
    one place the snapshot's phase/task shape is interpreted (the
    service smoke suite and benchmark gate "zero new tasks on cache
    hits" through this)."""
    return sum(phase.get("tasks", 0)
               for phase in (snapshot or {}).get("phases", {}).values())


def build_timings(snapshot: Optional[Dict],
                  level_stats: Optional[List] = None) -> Dict:
    """The ``timings`` currency: per-phase wall clock distilled from an
    ``executor_stats`` snapshot, plus optional per-level seconds.

    Serialized alongside ``executor_stats`` by every entry point
    (``DiscoveryResult.timings`` and the extension result mirrors) and
    round-tripped byte-identically through
    :mod:`repro.core.serialize`."""
    phases = {phase: float(stats.get("seconds", 0.0))
              for phase, stats in
              (snapshot or {}).get("phases", {}).items()}
    timings: Dict[str, object] = {"phases": phases}
    if level_stats is not None:
        timings["levels"] = [{"level": stats.level,
                              "seconds": stats.seconds}
                             for stats in level_stats]
    return timings
