"""Incremental FASTOD: keep the discovered OD set fresh under row changes.

A from-scratch FASTOD run re-sorts every partition and re-scans every
candidate even though an appended batch can only *shrink* the set of
valid ODs (a violating tuple pair, once present, never goes away).
:class:`IncrementalFastOD` exploits that monotonicity:

* **verdicts are monotone** — a refuted candidate (FD or OCD) stays
  refuted under appends, so False verdicts are cached and never
  re-examined;
* **held ODs are maintained, not re-discovered** — every emitted FD is
  re-checked per batch through O(1) maintained partition measures
  (``e(X \\ A) = e(X)`` off :class:`repro.incremental.delta.GroupTracker`
  counters), and an emitted OCD is re-checked only when the batch
  touched its context's classes (a swap needs two rows of one class),
  with one swap scan over the delta-maintained context partition: a
  single pass over τ_A of the new snapshot
  (:meth:`repro.relation.encoding.EncodedRelation.order`);
* **only the load-bearing groupings are kept current** — the tracker
  chains behind the currently-held ODs are synced every batch; every
  other grouping goes stale and catches up in one combined span if a
  later traversal actually consults it;
* the lattice **traversal re-runs only when a verdict flipped**: if a
  batch invalidated nothing, the previous result is carried over
  verbatim; otherwise the shared
  :class:`~repro.engine.LatticePlanner` re-runs the level-wise sweep
  against the verdict caches (a :class:`_CacheBackend` answers its
  typed tasks), paying full validation only for candidates that became
  reachable because an invalidated OD stopped pruning them.

Every row change enters through :meth:`IncrementalFastOD.apply_delta`
as a weighted :class:`~repro.deltalog.DeltaBatch` (an append is an
insert-only batch) or as that batch's :class:`~repro.deltalog.DeltaFold`
— the engine adopts the fold's final relation rather than re-deriving
it, so a caller that already folded a batch (to fingerprint and log it
first) pays for the fold once.  Deletes break the monotonicity: a
removed row can take the only violating pair of any False verdict with
it.  So a batch that deletes rows, alone or beside inserts, runs FASTOD
from scratch over the new relation
(:meth:`IncrementalFastOD._rediscover`: the shared planner over
FASTOD's own :class:`~repro.engine.PartitionBackend`) and records
every verdict it decides as the caches the next append starts from.
Construction is the same rediscovery.

After every batch the engine's FD/OCD sets are identical to what a
from-scratch run on the current relation would produce (the
``verify_with_oracle`` flag asserts exactly that, and the property
tests in ``tests/incremental`` enforce it — including arbitrary
interleaved insert/delete/update sequences).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.candidates import LatticeNode
from repro.core.fastod import FastOD, FastODConfig
from repro.core.results import DiscoveryResult, diff_results
from repro.engine.budget import DeadlineBudget
from repro.engine.executors import SerialExecutor
from repro.engine.planner import (LatticePlanner, PartitionBackend,
                                  TraversalBackend)
from repro.engine.tasks import FdCheckTask, OcdScanTask
from repro.engine.telemetry import build_timings
from repro.incremental.delta import BatchEffect, DeltaPartition, GroupTracker
from repro.relation.schema import bit_count
from repro.relation.table import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deltalog import DeltaBatch, DeltaFold

FdKey = Tuple[int, int]             # (context mask, node mask)
OcdKey = Tuple[int, int, int]       # (context mask, attr a, attr b)


@dataclass
class BatchReport:
    """What one applied batch (append or general delta) did to the
    discovered OD set."""

    batch_index: int
    n_appended: int
    n_rows: int
    invalidated: List[str] = field(default_factory=list)
    appeared: List[str] = field(default_factory=list)
    retraversed: bool = False
    seconds: float = 0.0
    result: Optional[DiscoveryResult] = None
    n_deleted: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "batch": self.batch_index,
            "n_appended": self.n_appended,
            "n_deleted": self.n_deleted,
            "n_rows": self.n_rows,
            "invalidated": list(self.invalidated),
            "appeared": list(self.appeared),
            "retraversed": self.retraversed,
            "seconds": self.seconds,
            "n_ods": self.result.n_ods if self.result else 0,
        }

    def __str__(self) -> str:
        changes = ""
        if self.invalidated:
            changes += f", -{len(self.invalidated)} invalidated"
        if self.appeared:
            changes += f", +{len(self.appeared)} newly minimal"
        ods = self.result.paper_counts() if self.result else "?"
        deleted = (f"/-{self.n_deleted}" if self.n_deleted else "")
        return (f"batch {self.batch_index}: +{self.n_appended}"
                f"{deleted} rows "
                f"({self.n_rows} total), ODs {ods}{changes}, "
                f"{self.seconds * 1000:.1f} ms")


class IncrementalFastOD:
    """FASTOD whose output is delta-maintained across row changes.

    >>> from repro.deltalog import DeltaBatch
    >>> from repro.relation.table import Relation
    >>> engine = IncrementalFastOD(Relation.from_rows(
    ...     ["a", "b"], [(1, 10), (2, 20)]))
    >>> engine.result.n_ods > 0
    True
    >>> report = engine.apply_delta(DeltaBatch.inserts([(3, 5)]))
    >>> "{}: a ~ b" in report.invalidated      # a swap landed
    True
    """

    def __init__(self, relation: Relation,
                 config: Optional[FastODConfig] = None,
                 verify_with_oracle: bool = False):
        config = config or FastODConfig()
        if config.timeout_seconds is not None:
            raise ValueError(
                "IncrementalFastOD needs complete traversals to keep "
                "its snapshots consistent; timeout_seconds is not "
                "supported")
        self._config = config
        self._verify = verify_with_oracle
        self._relation = relation
        self._encoded = relation.encode()
        self._names = self._encoded.names
        self._arity = self._encoded.arity
        self._full_mask = (1 << self._arity) - 1
        # per-snapshot state, (re)built by every rediscovery: stable
        # value gids per column, the trackers and delta partitions
        # built from them, and the verdict caches.  False is permanent
        # under appends; True holds for the current snapshot and puts
        # its context chain on the per-batch sync schedule, whose
        # effects say which verdicts to re-check
        self._col_gids: List[np.ndarray] = []
        self._trackers: Dict[int, GroupTracker] = {}
        self._delta_partitions: Dict[int, DeltaPartition] = {}
        self._fd_true: Set[FdKey] = set()
        self._fd_false: Set[FdKey] = set()
        self._ocd_true: Set[OcdKey] = set()
        self._ocd_false: Set[OcdKey] = set()
        self._live_ocds: Set[OcdKey] = set()
        self._needed_masks: List[int] = []
        self._batch_effects: Dict[int, BatchEffect] = {}
        self._n_batches = 0
        # a batch's re-checks are single-dependency scans, one τ_A
        # walk each: they run on the coordinator at any worker count
        self._executor = SerialExecutor(
            self._encoded, kernel_backend=config.kernel_backend)
        self._result = self._rediscover()
        if self._verify:
            self._check_against_oracle(self._result)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The relation as of the last applied batch."""
        return self._relation

    @property
    def config(self) -> FastODConfig:
        """The config every maintained traversal runs under (fixed at
        construction — it is part of the maintained result's cache
        identity)."""
        return self._config

    @property
    def result(self) -> DiscoveryResult:
        """The discovered minimal OD set as of the last append."""
        return self._result

    @property
    def n_batches(self) -> int:
        return self._n_batches

    def close(self) -> None:
        """Release the engine's executor."""
        self._executor.close()

    def executor_stats(self) -> Dict[str, object]:
        """Cumulative per-phase executor telemetry across batches."""
        return self._executor.telemetry.snapshot()

    def _scan_compatible(self, a: int, b: int, partition) -> bool:
        """One full swap scan through the engine executor, under the
        config's kernel backend; the executor follows each batch's
        relation via :meth:`repro.engine.SerialExecutor.rebase`."""
        self._executor.rebase(self._encoded)
        return self._executor.scan_partition("swap", a, b, partition)

    def apply_delta(self, delta: "DeltaBatch | DeltaFold"
                    ) -> BatchReport:
        """Apply a weighted :class:`~repro.deltalog.DeltaBatch` of
        inserts/deletes/updates (folded here) or its
        :class:`~repro.deltalog.DeltaFold` over :attr:`relation`, and
        refresh the discovered set.

        An insert-only batch rides the append fast path.  A batch that
        deletes rows, delete-only or mixed, adopts the fold's final
        relation and rediscovers from scratch (:meth:`_rediscover`):
        any False verdict may flip back once rows leave.
        """
        # imported here: discovery-only processes (the CLI) never load
        # the delta log package
        from repro.deltalog import DeltaBatch

        started = time.perf_counter()
        fold = (delta.fold(self._relation)
                if isinstance(delta, DeltaBatch) else delta)
        if fold.base is not self._relation:
            raise ValueError(
                "the fold was computed against another relation than "
                "this engine's current one")
        self._n_batches += 1
        previous = self._result
        if not fold.deletes and not fold.inserts:
            return BatchReport(
                self._n_batches, 0, self._encoded.n_rows,
                seconds=time.perf_counter() - started, result=previous)
        if fold.deletes:
            self._relation = fold.relation
            self._encoded = fold.relation.encode()
            self._result = self._rediscover()
            retraversed = True
        else:
            retraversed = self._apply_inserts(fold.relation)
        if self._verify:
            self._check_against_oracle(self._result)

        before = {str(od) for od in previous.all_ods}
        after = {str(od) for od in self._result.all_ods}
        return BatchReport(
            self._n_batches, len(fold.inserts), self._encoded.n_rows,
            invalidated=sorted(before - after),
            appeared=sorted(after - before),
            retraversed=retraversed,
            seconds=time.perf_counter() - started,
            result=self._result,
            n_deleted=len(fold.deletes))

    def _apply_inserts(self, relation: Relation) -> bool:
        """The append fast path: adopt ``relation`` (the snapshot
        grown by rows appended at its end), sync the schedule, demote
        flipped verdicts, re-traverse only if anything flipped.  Sets
        ``self._result``; returns whether a traversal ran."""
        previous = self._result
        # a rediscovery builds no trackers: build the schedule's over
        # the pre-append snapshot, so that syncing them below records
        # this batch's effect on every held OCD's context
        for mask in self._needed_masks:
            self._tracker(mask)
        n_old = self._relation.n_rows
        encoded = relation.encode()
        self._relation = relation
        self._encoded = encoded
        for a in range(self._arity):
            self._col_gids[a] = np.concatenate((
                self._col_gids[a],
                encoded.keys[a].gid_sorted[encoded.ranks[a][n_old:]]))

        # keep the load-bearing groupings current and catch the effects
        self._batch_effects = {}
        for mask in self._needed_masks:
            self._sync(mask)

        ocd_flipped = self._demote_ocds()
        fd_flipped = self._demote_fds()

        retraversed = bool(ocd_flipped) or bool(fd_flipped)
        if retraversed:
            self._result = self._traverse()
        else:
            self._result = self._carry_result(previous)
        return retraversed

    # ------------------------------------------------------------------
    # tracked state
    # ------------------------------------------------------------------
    def _tracker(self, mask: int) -> GroupTracker:
        """The tracker for ``mask``, built from the current snapshot on
        first use (parents first)."""
        tracker = self._trackers.get(mask)
        if tracker is None:
            if mask == 0:
                tracker = GroupTracker.from_gids(
                    np.zeros(self._encoded.n_rows, dtype=np.int64))
            else:
                low = mask & -mask
                attribute = low.bit_length() - 1
                if mask == low:
                    tracker = GroupTracker.from_gids(
                        self._col_gids[attribute])
                else:
                    tracker = GroupTracker.combine(
                        self._sync(mask ^ low), self._col_gids[attribute])
            self._trackers[mask] = tracker
        return tracker

    def _sync(self, mask: int) -> GroupTracker:
        """Bring a tracker (and its materialized partition) up to the
        current snapshot, replaying everything it missed as one span.

        Masks on the per-batch schedule advance exactly one batch at a
        time, so their recorded effect *is* that batch — which is what
        :meth:`_demote_ocds` reads to pick the OCDs to re-check.
        """
        tracker = self._tracker(mask)
        target = self._encoded.n_rows
        if tracker.n_rows == target:
            return tracker
        low = mask & -mask
        attribute = low.bit_length() - 1
        span = slice(tracker.n_rows, target)
        if mask == 0:
            attr_gids = np.zeros(target - tracker.n_rows, dtype=np.int64)
            parent: Optional[GroupTracker] = None
        elif mask == low:
            attr_gids = self._col_gids[attribute][span]
            parent = None
        else:
            parent = self._sync(mask ^ low)
            attr_gids = self._col_gids[attribute][span]
        effect = tracker.apply_batch(attr_gids, parent)
        self._batch_effects[mask] = effect
        delta = self._delta_partitions.get(mask)
        if delta is not None:
            delta.apply(effect)
        return tracker

    def _delta(self, mask: int) -> DeltaPartition:
        delta = self._delta_partitions.get(mask)
        if delta is None:
            delta = DeltaPartition(self._sync(mask))
            self._delta_partitions[mask] = delta
        return delta

    def _rebuild_schedule(self) -> None:
        """Recompute which masks each batch must keep current: the
        parent chains behind every held FD and OCD verdict."""
        needed: Set[int] = {0}
        for ctx_mask, node_mask in self._fd_true:
            needed.update(self._chain(ctx_mask))
            needed.update(self._chain(node_mask))
        for ctx_mask, _, _ in self._ocd_true:
            needed.update(self._chain(ctx_mask))
        self._needed_masks = sorted(needed, key=bit_count)

    @staticmethod
    def _chain(mask: int) -> Iterable[int]:
        """``mask`` and its derivation chain (drop lowest bit down)."""
        while mask:
            yield mask
            mask ^= mask & -mask
        yield 0

    # ------------------------------------------------------------------
    # verdict maintenance (the per-batch fast path)
    # ------------------------------------------------------------------
    def _demote_fds(self) -> List[FdKey]:
        """Re-check every held FD off the maintained O(1) measures."""
        flipped = [key for key in self._fd_true
                   if not self._fd_check(*key)]
        for key in flipped:
            self._fd_true.discard(key)
            self._fd_false.add(key)
        return flipped

    def _demote_ocds(self) -> List[OcdKey]:
        """Re-check every held OCD whose context classes the batch
        touched, with one swap scan over the context; violators stay
        demoted under appends.  A batch whose rows all stay singletons
        in the context cannot form a swap, so it costs nothing."""
        flipped: List[OcdKey] = []
        for key in list(self._ocd_true):
            ctx_mask, a, b = key
            effect = self._batch_effects.get(ctx_mask)
            if effect is None or not effect.touches_classes:
                continue
            if not self._scan_compatible(
                    a, b, self._delta(ctx_mask).partition):
                self._ocd_true.discard(key)
                self._ocd_false.add(key)
                flipped.append(key)
        return flipped

    # ------------------------------------------------------------------
    # validation against the caches
    # ------------------------------------------------------------------
    def _fd_check(self, ctx_mask: int, node_mask: int) -> bool:
        """The raw FD test off maintained measures: superkey context
        (Lemma 12) or error equality.  Both trackers must be current."""
        context = self._tracker(ctx_mask)
        if context.is_superkey():
            return True
        return context.error == self._tracker(node_mask).error

    def _fd_valid(self, ctx_mask: int, node_mask: int) -> bool:
        """``X \\ A: [] ↦ A`` with verdict caching.

        False verdicts are permanent (a split persists under appends);
        True verdicts were re-checked against the current batch by
        :meth:`_demote_fds`.  Fresh candidates sync their tracker
        chains — this is the only place stale groupings catch up.
        """
        key = (ctx_mask, node_mask)
        if key in self._fd_false:
            return False
        if key in self._fd_true:
            return True
        self._sync(ctx_mask)
        self._sync(node_mask)
        valid = self._fd_check(ctx_mask, node_mask)
        if valid:
            self._fd_true.add(key)
        else:
            self._fd_false.add(key)
        return valid

    def _ocd_valid(self, ctx_mask: int, a: int, b: int) -> bool:
        """``X \\ {A,B}: A ~ B`` with verdict caching.

        False verdicts are permanent under appends; True verdicts were
        re-checked against every batch by :meth:`_demote_ocds`, so they
        are still exact.  Only candidates never seen before pay a scan.
        """
        key = (ctx_mask, a, b)
        if key in self._ocd_false:
            return False
        if key in self._ocd_true:
            self._live_ocds.add(key)
            return True
        if self._sync(ctx_mask).is_superkey():
            valid = True        # no stripped classes to scan (Lemma 13)
        else:
            valid = self._scan_compatible(
                a, b, self._delta(ctx_mask).partition)
        if valid:
            self._ocd_true.add(key)
            self._live_ocds.add(key)
        else:
            self._ocd_false.add(key)
        return valid

    # ------------------------------------------------------------------
    # the level-wise sweep (the shared planner)
    # ------------------------------------------------------------------
    def _rediscover(self) -> DiscoveryResult:
        """FASTOD from scratch over the current snapshot, refilling
        every verdict cache (construction and every batch that deletes
        rows).

        The sweep runs over FASTOD's own partition backend on the
        engine's executor (:class:`_RecordingBackend`), which records
        each FD and OCD verdict it decides.  Trackers and delta
        partitions start empty and are built on first use."""
        encoded = self._encoded
        keys = encoded.keys
        self._col_gids = [
            keys[a].gid_sorted[encoded.ranks[a]]
            if len(keys[a].gid_sorted) else np.empty(0, dtype=np.int64)
            for a in range(self._arity)
        ]
        self._trackers = {}
        self._delta_partitions = {}
        self._batch_effects = {}
        self._fd_true, self._fd_false = set(), set()
        self._ocd_true, self._ocd_false = set(), set()
        self._executor.rebase(encoded)
        result = self._plan(_RecordingBackend(self))
        self._rebuild_schedule()
        return result

    def _traverse(self) -> DiscoveryResult:
        """The sweep against the verdict caches (an insert-only batch
        that flipped a verdict)."""
        emitted_fds: Set[FdKey] = set()
        self._live_ocds = set()
        result = self._plan(_CacheBackend(self, emitted_fds))
        # verdicts the sweep no longer consults stop being maintained;
        # if invalidations ever re-open that part of the lattice, they
        # are simply re-validated from the then-current snapshot
        self._fd_true = emitted_fds
        self._ocd_true &= self._live_ocds
        self._rebuild_schedule()
        return result

    def _plan(self, backend: TraversalBackend) -> DiscoveryResult:
        config = self._config
        return LatticePlanner(
            self._names, config, backend, DeadlineBudget.unlimited(),
            algorithm=("FASTOD-Incremental" if config.minimality_pruning
                       else "FASTOD-Incremental-NoPruning"),
            n_rows=self._encoded.n_rows).run()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _carry_result(self, previous: DiscoveryResult) -> DiscoveryResult:
        """No verdict changed, so no traversal ran: the previous OD set
        is still exact for the grown relation."""
        result = DiscoveryResult(
            algorithm=previous.algorithm,
            attribute_names=previous.attribute_names,
            n_rows=self._encoded.n_rows,
            fds=list(previous.fds),
            ocds=list(previous.ocds),
            level_stats=previous.level_stats,
            minimal=previous.minimal,
            config=previous.config,
        )
        # the carried result's profile is the cumulative executor
        # truth (same source :meth:`executor_stats` reports), so the
        # maintained result always serializes with timings attached
        result.executor_stats = \
            self._executor.telemetry.snapshot()
        result.timings = build_timings(result.executor_stats,
                                       result.level_stats)
        return result

    def _check_against_oracle(self, result: DiscoveryResult) -> None:
        """Assert byte-identical FD/OCD sets vs a from-scratch run."""
        oracle = FastOD(self._relation, self._config).run()
        mine = (sorted(str(od) for od in result.fds),
                sorted(str(od) for od in result.ocds))
        theirs = (sorted(str(od) for od in oracle.fds),
                  sorted(str(od) for od in oracle.ocds))
        if mine != theirs:
            raise AssertionError(
                "incremental result diverged from the from-scratch "
                "oracle:\n" + (diff_results(result, oracle) or ""))


class _CacheBackend(TraversalBackend):
    """Answers the shared planner's typed tasks from the incremental
    engine's verdict caches.

    Nodes carry no partitions (``partition=None`` everywhere): truth
    comes from :meth:`IncrementalFastOD._fd_valid` /
    :meth:`IncrementalFastOD._ocd_valid`, which consult the permanent
    False caches, the maintained True verdicts, and — only for
    never-seen candidates — the delta-maintained partitions.  It
    serves only the re-traversals of insert-only batches.  The planner
    still owns every candidate-set mutation and the emission order, so
    such a re-traversal is byte-identical to a from-scratch run.
    """

    def __init__(self, engine: IncrementalFastOD,
                 emitted_fds: Set[FdKey]):
        self._engine = engine
        self._emitted = emitted_fds

    def root_node(self) -> LatticeNode:
        return LatticeNode(0, None, cc=self._engine._full_mask, cs=set())

    def first_level(self) -> Dict[int, LatticeNode]:
        return {1 << a: LatticeNode(1 << a, None)
                for a in range(self._engine._arity)}

    def fd_verdict(self, task: FdCheckTask, node: LatticeNode,
                   previous: Dict[int, LatticeNode]) -> bool:
        return self._engine._fd_valid(task.context_mask, task.node_mask)

    def fd_emitted(self, task: FdCheckTask) -> None:
        self._emitted.add((task.context_mask, task.node_mask))

    def fd_phase_complete(self, level: int, n_candidates: int,
                          seconds: float = 0.0) -> None:
        self._engine._executor.telemetry.record(
            "fd-check", n_candidates, False, seconds)

    def ocd_verdicts(self, level: int, tasks: List[OcdScanTask],
                     before_previous: Dict[int, LatticeNode]):
        self._engine._executor.telemetry.record(
            "ocd-scan", len(tasks), False)
        return {task: self._engine._ocd_valid(task.context_mask,
                                              task.a, task.b)
                for task in tasks}, False

    def build_level(self, masks, current) -> Dict[int, LatticeNode]:
        return {mask: LatticeNode(mask, None) for mask in masks}

    def finish(self, result: DiscoveryResult) -> None:
        result.executor_stats = \
            self._engine._executor.telemetry.snapshot()


class _RecordingBackend(PartitionBackend):
    """FASTOD's partition backend on the engine's executor (so
    ``FastODConfig.kernel_backend`` pins its kernels), recording every
    verdict it decides into the engine's caches: a rediscovery."""

    def __init__(self, engine: IncrementalFastOD):
        super().__init__(engine._encoded, engine._config,
                         engine._executor, DeadlineBudget.unlimited())
        self._engine = engine

    def fd_verdict(self, task: FdCheckTask, node: LatticeNode,
                   previous: Dict[int, LatticeNode]) -> bool:
        valid = super().fd_verdict(task, node, previous)
        engine = self._engine
        (engine._fd_true if valid else engine._fd_false).add(
            (task.context_mask, task.node_mask))
        return valid

    def ocd_verdicts(self, level: int, tasks: List[OcdScanTask],
                     before_previous: Dict[int, LatticeNode]):
        verdicts, timed_out = super().ocd_verdicts(level, tasks,
                                                   before_previous)
        engine = self._engine
        for task, valid in verdicts.items():
            (engine._ocd_true if valid else engine._ocd_false).add(
                (task.context_mask, task.a, task.b))
        return verdicts, timed_out
