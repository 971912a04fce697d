"""FASTOD: complete, minimal discovery of set-based canonical ODs.

Implements Algorithms 1-4 of the paper:

* level-wise sweep of the set-containment lattice (`Algorithm 1`),
* Apriori-style level generation (`Algorithm 2`,
  :mod:`repro.core.lattice`),
* candidate sets ``C_c+`` / ``C_s+`` with minimality checks
  (`Algorithm 3`, :mod:`repro.core.candidates`),
* level pruning when both candidate sets empty (`Algorithm 4`,
  Lemma 11),
* stripped partitions with linear products and the error-rate FD test,
  plus key pruning (Section 4.6, Lemmas 12-14).

The traversal itself lives in :mod:`repro.engine`: a
:class:`~repro.engine.LatticePlanner` owns level iteration,
candidate-set mutation, pruning, and the deadline budget, emitting
typed tasks that a :class:`~repro.engine.PartitionBackend` resolves
against the flat NumPy stripped partitions of
:mod:`repro.partitions.partition`.  :class:`FastOD` is the thin
partition-backed entry point: it wires the relation's encoding, an
optional :class:`~repro.partitions.cache.PartitionCache`, and an
executor together, then runs the shared planner.

Since the nodes of one level are independent, the per-level work also
splits across threads: with ``FastODConfig(workers=N)`` (or
``REPRO_WORKERS``), a level's partition products and its FD/OCD scans
run as shares on an in-process :class:`repro.parallel.WorkerPool`
through the engine's :class:`~repro.engine.PoolExecutor` (the kernels
release the GIL), while the planner keeps every candidate-set mutation
(``cc``/``cs`` updates, Algorithm 4 pruning) on the calling thread and
applies share verdicts in deterministic task order — so parallel
results are byte-identical to ``workers=1``.  Batches whose partitions
hold fewer grouped rows than the dispatch floor never leave the
calling thread.

Toggles on :class:`FastODConfig` disable the pruning families to
reproduce the paper's *FASTOD-No Pruning* ablations (Figures 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.results import DiscoveryResult
from repro.engine.budget import DeadlineBudget
from repro.engine.executors import make_executor
from repro.engine.planner import LatticePlanner, PartitionBackend
from repro.parallel.pool import WorkerPool
from repro.partitions.cache import PartitionCache
from repro.relation.table import Relation


@dataclass
class FastODConfig:
    """Knobs for a FASTOD run.

    minimality_pruning:
        Maintain ``C_c+``/``C_s+`` and emit only minimal ODs (the real
        algorithm).  When off, every valid non-trivial canonical OD at
        every lattice node is validated and emitted — the paper's
        *FASTOD-No Pruning* mode used for Exp-5/Exp-6.
    level_pruning:
        Delete nodes whose candidate sets are both empty (Algorithm 4).
        Only meaningful while minimality pruning is on.
    key_pruning:
        Skip validation scans when the context is a superkey
        (Lemmas 12-13).  Never changes results, only work.
    max_level:
        Stop after contexts of this size (``None`` = run to the top).
    timeout_seconds:
        Best-effort wall-clock budget; results so far are returned with
        ``timed_out=True``.  One :class:`~repro.engine.DeadlineBudget`
        is shared by every layer: it is checked between lattice nodes,
        between the FD and OCD phases of a level, between individual
        validation scans, and cooperatively inside parallel shares —
        so one huge node cannot overshoot the budget by a whole level.
    workers:
        Threads a lattice level's products and scans are split
        across.  ``None`` defers to the ``REPRO_WORKERS`` environment
        variable; 1 (the default resolution) runs fully serial.
        Results are byte-identical either way.
    parallel_min_grouped_rows:
        Dispatch floor: a level's products or scans go to the thread
        pool only when their partitions hold at least this many
        grouped rows (``None`` = the package default,
        :data:`repro.parallel.PARALLEL_MIN_GROUPED_ROWS`).  Mostly a
        testing knob — set 0 to force every batch through the pool.
    kernel_backend:
        Which partition-kernel implementation to run the hot loops on:
        ``"reference"`` (pure NumPy), ``"compiled"`` (C via ctypes),
        or ``"auto"`` (compiled when buildable, else reference).
        ``None`` defers to the ``REPRO_KERNELS`` environment variable.
        Backends are byte-identical by contract, so this is a
        work-shaping knob like ``workers``.
    """

    minimality_pruning: bool = True
    level_pruning: bool = True
    key_pruning: bool = True
    max_level: Optional[int] = None
    timeout_seconds: Optional[float] = None
    workers: Optional[int] = None
    parallel_min_grouped_rows: Optional[int] = None
    kernel_backend: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "minimality_pruning": self.minimality_pruning,
            "level_pruning": self.level_pruning,
            "key_pruning": self.key_pruning,
            "max_level": self.max_level,
            "timeout_seconds": self.timeout_seconds,
            "workers": self.workers,
            "parallel_min_grouped_rows": self.parallel_min_grouped_rows,
            "kernel_backend": self.kernel_backend,
        }

    def canonical_dict(self) -> Dict[str, object]:
        """Only the knobs that can change a *completed* run's output.

        ``key_pruning``, ``workers``, ``parallel_min_grouped_rows``
        and ``kernel_backend`` never alter results (they are
        work-shaping knobs; parallel runs and both kernel backends are
        byte-identical by construction), and ``timeout_seconds``
        only matters for runs that actually time out — which the
        result store refuses to cache.  ``level_pruning`` is
        normalised to False when minimality pruning is off, where it
        has no effect.
        """
        return {
            "minimality_pruning": self.minimality_pruning,
            "level_pruning": (self.level_pruning
                              and self.minimality_pruning),
            "max_level": self.max_level,
        }

    def canonical_key(self) -> str:
        """A short stable slug of :meth:`canonical_dict` — the second
        half of the service result store's ``(fingerprint, config)``
        cache key, and a safe filename component.

        >>> FastODConfig().canonical_key()
        'min1-lvl1-maxall'
        >>> FastODConfig(workers=4).canonical_key()   # work-shaping only
        'min1-lvl1-maxall'
        """
        canonical = self.canonical_dict()
        max_level = canonical["max_level"]
        return (f"min{int(bool(canonical['minimality_pruning']))}"
                f"-lvl{int(bool(canonical['level_pruning']))}"
                f"-max{'all' if max_level is None else int(max_level)}")


class FastOD:
    """One discovery run over one relation instance.

    >>> from repro.datasets import employees
    >>> result = FastOD(employees()).run()
    >>> any(str(od) == "{posit}: [] -> bin" for od in result.fds)
    True
    """

    def __init__(self, relation: Relation,
                 config: Optional[FastODConfig] = None,
                 cache: Optional[PartitionCache] = None,
                 pool: Optional[WorkerPool] = None):
        self._relation = relation
        self._encoded = relation.encode()
        self._config = config or FastODConfig()
        if cache is not None and cache.relation is not self._encoded:
            raise ValueError(
                "the partition cache must wrap this relation's encoding")
        self._cache = cache
        if pool is not None and pool.relation is not self._encoded:
            raise ValueError(
                "the worker pool must wrap this relation's encoding")
        self._pool = pool

    # ------------------------------------------------------------------
    # public entry point (Algorithm 1, via the unified engine)
    # ------------------------------------------------------------------
    def run(self, budget: Optional[DeadlineBudget] = None
            ) -> DiscoveryResult:
        """Run discovery.  ``budget`` injects an externally owned
        :class:`~repro.engine.DeadlineBudget` (the service job
        scheduler's cancellation handle); by default one is built from
        ``config.timeout_seconds``."""
        config = self._config
        if budget is None:
            budget = DeadlineBudget(config.timeout_seconds)
        executor = make_executor(
            self._encoded, workers=config.workers, pool=self._pool,
            min_grouped_rows=config.parallel_min_grouped_rows,
            kernel_backend=config.kernel_backend)
        backend = PartitionBackend(self._encoded, config, executor,
                                   budget, cache=self._cache)
        planner = LatticePlanner(
            self._encoded.names, config, backend, budget,
            algorithm=("FASTOD" if config.minimality_pruning
                       else "FASTOD-NoPruning"),
            n_rows=self._encoded.n_rows)
        try:
            return planner.run()
        finally:
            # an owned pool's threads end with the run; injected
            # pools belong to the caller and survive for the next run
            executor.close()


def discover_ods(relation: Relation, **config_kwargs) -> DiscoveryResult:
    """Convenience wrapper: run FASTOD with keyword config options.

    >>> from repro.datasets import employees
    >>> discover_ods(employees()).n_ods > 0
    True
    """
    return FastOD(relation, FastODConfig(**config_kwargs)).run()
