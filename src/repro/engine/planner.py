"""The lattice traversal: one planner over one partition backend.

FASTOD's level-wise sweep (Algorithms 1-4 of the paper) is implemented
once.  :class:`LatticePlanner` owns the control flow:

* level iteration and Apriori level generation (Algorithm 2),
* candidate-set (``C_c+``/``C_s+``) population and mutation
  (Algorithm 3) — **always serial**, on the coordinator,
* node pruning (Algorithm 4),
* per-level statistics, deadline checks, and the three-level partition
  residency window,

and emits typed tasks (:class:`~repro.engine.tasks.FdCheckTask`,
:class:`~repro.engine.tasks.OcdScanTask`,
:class:`~repro.engine.tasks.ProductTask`) in a deterministic order.
:class:`PartitionBackend` answers them against stripped partitions
through an executor, serial or pooled.  The from-scratch engines use
it as is; the incremental engine subclasses it to record verdicts and
to answer the OCD candidates its verdict sets already decide.
Emission order and candidate-set mutation live in the planner alone,
so every run produces byte-identical FD/OCD sets by construction.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.candidates import (
    LatticeNode,
    context_names,
    fill_candidate_sets,
    prune_empty_nodes,
)
from repro.core.lattice import next_level_masks, parents_for_partition
from repro.core.od import CanonicalFD, CanonicalOCD
from repro.core.results import DiscoveryResult, LevelStats
from repro.engine.budget import DeadlineBudget
from repro.engine.tasks import FdCheckTask, OcdScanTask, ProductTask
from repro.engine.telemetry import build_timings
from repro.obs import metrics, trace
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation
from repro.relation.schema import iter_bits

_LEVELS = metrics.counter(
    "repro_planner_levels_total",
    "Lattice levels fully processed by the planner")
_LEVEL_SECONDS = metrics.histogram(
    "repro_planner_level_seconds",
    "Wall-clock seconds per lattice level (candidate phases plus "
    "pruning; products bill to the next level)")


def level_partition_bytes(*levels: Dict[int, LatticeNode]) -> int:
    """Resident partition bytes across lattice level dicts, counting a
    partition that several nodes share (Π*_X = Π*_{X\\B}) once."""
    seen = set()
    total = 0
    for nodes in levels:
        for node in nodes.values():
            partition = node.partition
            if partition is not None and id(partition) not in seen:
                seen.add(id(partition))
                total += partition.rows.nbytes + partition.offsets.nbytes
    return total


class LatticePlanner:
    """Drives one level-wise sweep over the set-containment lattice.

    The planner never touches a partition itself.  All ``cc``/``cs``
    mutations happen here, in the serial engine's historical order, so
    a run's output is a pure function of the backend's verdicts.
    """

    def __init__(self, names: Tuple[str, ...], config,
                 backend: PartitionBackend, budget: DeadlineBudget,
                 algorithm: str, n_rows: int):
        self._names = names
        self._config = config
        self._backend = backend
        self._budget = budget
        self._algorithm = algorithm
        self._n_rows = n_rows
        self._full_mask = (1 << len(names)) - 1

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def run(self) -> DiscoveryResult:
        config = self._config
        backend = self._backend
        started = time.perf_counter()
        result = DiscoveryResult(
            algorithm=self._algorithm,
            attribute_names=self._names,
            n_rows=self._n_rows,
            minimal=config.minimality_pruning,
            config=config.to_dict(),
        )

        previous = {0: backend.root_node()}
        current = backend.first_level()
        before_previous: Dict[int, LatticeNode] = {}

        max_level = config.max_level
        level = 1
        # the loop test only stops a cap below 1; any other cap stops
        # below, before the products of the level above it
        while current and (max_level is None or level <= max_level):
            stats = LevelStats(level=level, n_nodes=len(current))
            level_started = time.perf_counter()
            with trace.span("level", level=level,
                            nodes=len(current)):
                stats.peak_partition_bytes = backend.resident_bytes(
                    before_previous, previous, current)

                fill_candidate_sets(level, current, previous,
                                    self._full_mask,
                                    config.minimality_pruning)
                timed_out = self._compute_ods(
                    level, current, previous, before_previous,
                    result, stats)
                # partitions two levels down were consumed for the
                # last time by this level's OCD contexts — release
                # them before the next level's products allocate, so
                # at most three levels of partitions are ever resident
                backend.release(before_previous)
                before_previous = {}
                stats.n_nodes_pruned = self._prune_level(level, current)
            stats.seconds = time.perf_counter() - level_started
            result.level_stats.append(stats)
            _LEVELS.inc()
            _LEVEL_SECONDS.observe(stats.seconds)
            if timed_out:
                result.timed_out = True
                break
            if level == max_level:
                break

            with trace.span("products", level=level + 1):
                next_nodes = backend.build_level(
                    next_level_masks(current.keys()), current)
            if next_nodes is None:     # deadline hit during products
                result.timed_out = True
                break
            before_previous = previous
            previous = current
            current = next_nodes
            level += 1

        result.elapsed_seconds = time.perf_counter() - started
        backend.finish(result)
        result.timings = build_timings(result.executor_stats,
                                       result.level_stats)
        return result

    # ------------------------------------------------------------------
    # Algorithm 3: the FD phase, then the OCD phase
    # ------------------------------------------------------------------
    def _compute_ods(self, level: int, current: Dict[int, LatticeNode],
                     previous: Dict[int, LatticeNode],
                     before_previous: Dict[int, LatticeNode],
                     result: DiscoveryResult,
                     stats: LevelStats) -> bool:
        """Returns True when the deadline was hit mid-level.

        Four phases, so scan work can shard across an executor while
        every candidate-set mutation stays serial:

        1. constancy ODs for every node, applied in node order;
        2. enumerate the level's OCD candidates (minimality pre-checks
           read the *previous* level's ``C_c+``, which this level never
           mutates — so enumeration order cannot matter);
        3. batch verdicts from the backend (pooled or serial);
        4. apply verdicts in emission order (``cs`` mutations and
           emission order byte-identical to the serial engine).
        """
        backend = self._backend
        names = self._names
        minimal = self._config.minimality_pruning
        fd_started = time.perf_counter()
        with trace.span("fd-check", level=level):
            for mask, node in current.items():
                if self._budget.hit():
                    backend.fd_phase_complete(
                        level, stats.n_fd_candidates,
                        time.perf_counter() - fd_started)
                    return True
                # --- constancy ODs  X \ A: [] -> A ---------------------
                for attribute in list(iter_bits(mask & node.cc)):
                    bit = 1 << attribute
                    task = FdCheckTask(mask, attribute)
                    stats.n_fd_candidates += 1
                    if backend.fd_verdict(task, node, previous):
                        result.fds.append(CanonicalFD(
                            context_names(mask ^ bit, names),
                            names[attribute]))
                        backend.fd_emitted(task)
                        stats.n_fds_found += 1
                        if minimal:
                            node.cc &= ~bit      # remove A
                            node.cc &= mask      # remove all B in R \ X
            backend.fd_phase_complete(level, stats.n_fd_candidates,
                                      time.perf_counter() - fd_started)
        if level < 2:
            return False
        # one huge FD phase must not push the OCD scans past the
        # budget: re-check before any swap scanning starts
        if self._budget.hit():
            return True

        # --- order compatibility ODs  X \ {A,B}: A ~ B ----------------
        tasks: List[OcdScanTask] = []
        for mask, node in current.items():
            for pair in sorted(node.cs):
                a, b = pair
                if minimal:
                    # Algorithm 3 line 18: minimality via C_c+ of
                    # parents (fixed since the previous level).
                    if (not previous[mask ^ (1 << b)].cc & (1 << a)
                            or not previous[mask ^ (1 << a)].cc
                            & (1 << b)):
                        node.cs.discard(pair)
                        continue
                stats.n_ocd_candidates += 1
                tasks.append(OcdScanTask(mask, a, b))

        with trace.span("ocd-scan", level=level,
                        candidates=len(tasks)):
            verdicts, timed_out = backend.ocd_verdicts(
                level, tasks, before_previous)

        for task in tasks:
            verdict = verdicts.get(task)
            if verdict is None:
                continue   # the deadline cut this scan; keep the rest
            if verdict:
                result.ocds.append(CanonicalOCD(
                    context_names(task.context_mask, names),
                    names[task.a], names[task.b]))
                stats.n_ocds_found += 1
                if minimal:
                    current[task.node_mask].cs.discard(task.pair)
        return timed_out

    # ------------------------------------------------------------------
    # Algorithm 4
    # ------------------------------------------------------------------
    def _prune_level(self, level: int,
                     current: Dict[int, LatticeNode]) -> int:
        config = self._config
        if (not config.level_pruning or not config.minimality_pruning
                or level < 2):
            return 0
        return prune_empty_nodes(current)


class PartitionBackend:
    """What a :class:`LatticePlanner` needs answered, from stripped
    partitions.

    The planner owns *order* (which tasks exist, and in what sequence
    verdicts are applied); the backend owns *truth* (how a task is
    decided) and the partitions' storage: level 1 from the columns,
    each higher level as products of two parents one level down
    (Section 4.6, dispatched to the executor), OCD contexts two levels
    down, the three-level residency window (no cache: nothing reads a
    released level), and superkey shortcuts (Lemmas 12-13) resolved
    O(1) on the coordinator before anything is dispatched.

    A child ``X`` whose ``X \\ B: [] ↦ B`` an emitted FD implies
    (Augmentation-I: ``Y: [] ↦ B`` with ``Y ⊆ X \\ B``) is not a
    product at all: refining Π_{X\\B} by ``B`` merges nothing, so it
    shares the parent's Π*_{X\\B} object.
    """

    def __init__(self, relation: EncodedRelation, config,
                 executor, budget: DeadlineBudget):
        self._relation = relation
        self._config = config
        self._executor = executor
        self._budget = budget
        #: context mask -> bits of the attributes the FDs emitted
        #: with that context determine
        self._fds: Dict[int, int] = {}
        #: mask -> bits determined by an emitted FD whose context is a
        #: proper subset of the mask (:meth:`_determined_below`)
        self._below: Dict[int, int] = {}

    # -- partition sourcing --------------------------------------------
    def root_node(self) -> LatticeNode:
        full_mask = (1 << self._relation.arity) - 1
        return LatticeNode(
            0, StrippedPartition.single_class(self._relation.n_rows),
            cc=full_mask, cs=set())

    def first_level(self) -> Dict[int, LatticeNode]:
        return {
            1 << a: LatticeNode(1 << a, StrippedPartition.for_attribute(
                self._relation, a))
            for a in range(self._relation.arity)
        }

    def build_level(self, masks: List[int],
                    current: Dict[int, LatticeNode]
                    ) -> Optional[Dict[int, LatticeNode]]:
        """Nodes for the next level, or ``None`` when the deadline
        expired before its partitions were all built."""
        partitions: Dict[int, Optional[StrippedPartition]] = {}
        pending: List[ProductTask] = []
        for mask in masks:
            partitions[mask] = self._implied_partition(mask, current)
            if partitions[mask] is None:
                pending.append(ProductTask(mask,
                                           *parents_for_partition(mask)))

        if pending:
            parent_masks = {task.left for task in pending}
            parent_masks.update(task.right for task in pending)
            parents = {mask: current[mask].partition
                       for mask in parent_masks}
            computed, timed_out = self._executor.run_products(
                parents, pending, self._budget)
            if timed_out:
                return None    # a half-built level is never traversed
            for task in pending:
                partitions[task.child] = computed[task.child]

        self._executor.telemetry.record(
            "products-implied", len(partitions) - len(pending), False)
        return {mask: LatticeNode(mask, partition)
                for mask, partition in partitions.items()}

    def _implied_partition(self, mask: int,
                           current: Dict[int, LatticeNode]
                           ) -> Optional[StrippedPartition]:
        """The resident Π*_{X\\B} for the lowest ``B ∈ X`` that an
        emitted FD with a context strictly inside ``X \\ B``
        determines, or ``None`` when no such ``B`` exists.  Every
        emitted FD passed the partition error test, and a valid
        ``X \\ B: [] ↦ B`` means exactly Π*_X = Π*_{X\\B}."""
        for attribute in iter_bits(mask):
            bit = 1 << attribute
            if self._determined_below(mask ^ bit) & bit:
                return current[mask ^ bit].partition
        return None

    def _determined_below(self, mask: int) -> int:
        """Bits determined by an emitted FD whose context is a proper
        subset of ``mask``.  The value for an ``l``-attribute mask is
        first read when level ``l + 1`` is built, after level ``l``'s
        FD phase emitted the last FD with an ``l - 1``-attribute
        context, so every memoized value is final."""
        found = self._below.get(mask)
        if found is None:
            found = 0
            for attribute in iter_bits(mask):
                sub = mask ^ (1 << attribute)
                found |= self._fds.get(sub, 0) | self._determined_below(sub)
            self._below[mask] = found
        return found

    # -- verdicts -------------------------------------------------------
    def fd_emitted(self, task: FdCheckTask) -> None:
        """Hook: a valid FD was emitted (it makes the partitions of the
        lattice children it implies free, :meth:`_implied_partition`)."""
        context = task.context_mask
        self._fds[context] = (self._fds.get(context, 0)
                              | 1 << task.attribute)

    def fd_verdict(self, task: FdCheckTask, node: LatticeNode,
                   previous: Dict[int, LatticeNode]) -> bool:
        """``X \\ A: [] ↦ A`` via the partition error test: the FD
        holds iff refining the context by ``A`` merges nothing, i.e.
        ``e(Π_{X\\A}) == e(Π_X)`` (Section 4.6).  A superkey context
        has error 0 on both sides — exactly Lemma 12's shortcut."""
        context_node = previous[task.context_mask]
        if (self._config.key_pruning
                and context_node.partition.is_superkey()):
            return True
        return context_node.partition.error == node.partition.error

    def ocd_verdicts(self, level: int, tasks: List[OcdScanTask],
                     before_previous: Dict[int, LatticeNode]
                     ) -> Tuple[Dict[OcdScanTask, bool], bool]:
        """Batch verdicts keyed by task, plus a timed-out flag.  A task
        missing from the dict was cut by the deadline (the planner
        keeps earlier verdicts and flags the run).

        Superkey contexts resolve O(1) on the coordinator (Lemma 13);
        the rest go to the executor, which shards across the pool when
        the level is big enough."""
        verdicts: Dict[OcdScanTask, bool] = {}
        contexts: Dict[int, StrippedPartition] = {}
        scan_tasks = []
        key_pruning = self._config.key_pruning
        n_pruned = 0
        for task in tasks:
            context = self._context_partition(level, task,
                                              before_previous)
            if key_pruning and context.is_superkey():
                verdicts[task] = True
                n_pruned += 1
                continue
            contexts.setdefault(task.context_mask, context)
            scan_tasks.append((task, task.context_mask, "swap",
                               task.a, task.b))
        self._executor.telemetry.record("ocd-keyprune", n_pruned, False)
        if not scan_tasks:
            return verdicts, False
        scanned, timed_out = self._executor.run_scans(
            contexts, scan_tasks, self._budget, phase="ocd-scan")
        verdicts.update(scanned)
        return verdicts, timed_out

    def fd_phase_complete(self, level: int, n_candidates: int,
                          seconds: float = 0.0) -> None:
        """Hook: one level's FD phase checked ``n_candidates`` tasks in
        ``seconds`` (billed once per level: a verdict is O(1))."""
        self._executor.telemetry.record("fd-check", n_candidates,
                                        False, seconds)

    def _context_partition(self, level: int, task: OcdScanTask,
                           before_previous: Dict[int, LatticeNode]
                           ) -> StrippedPartition:
        """Π* of the context ``X \\ {A,B}`` — two levels down the
        lattice (the empty context at level 2)."""
        if level == 2:
            return StrippedPartition.single_class(self._relation.n_rows)
        return before_previous[task.context_mask].partition

    # -- lifecycle ------------------------------------------------------
    def resident_bytes(self, *levels: Dict[int, LatticeNode]) -> int:
        resident = level_partition_bytes(*levels)
        self._executor.telemetry.observe_residency(resident)
        return resident

    def release(self, nodes: Dict[int, LatticeNode]) -> None:
        """Drop a spent level's partitions."""
        for node in nodes.values():
            node.partition = None

    def finish(self, result: DiscoveryResult) -> None:
        result.executor_stats = self._executor.telemetry.snapshot()
