"""Incremental FASTOD: keep the discovered OD set fresh under row changes.

Canonical OD validity is monotone in the instance: an appended row can
only add split or swap pairs, so under appends a refuted candidate
stays refuted and only a held OD can flip.  :class:`IncrementalFastOD`
exploits that with three verdict sets — the held FDs, the held OCDs
and the refuted OCDs — and no partitions kept between batches:

* an **insert-only batch** re-checks the held ODs on fresh context
  partitions of the grown relation, built through one
  :class:`~repro.partitions.cache.PartitionCache`.  A new split or
  swap pair needs an appended row in a class of the context, so only
  the held ODs whose context Π* holds one are scanned, in one batch
  (an FD for a split, an OCD for a swap); the others cannot flip;
* if **nothing flipped**, the previous result is carried over
  verbatim: every verdict the last sweep consulted is unchanged, so
  the sweep would repeat itself;
* otherwise the shared :class:`~repro.engine.LatticePlanner` re-runs
  over FASTOD's own :class:`~repro.engine.PartitionBackend`
  (:meth:`IncrementalFastOD._rediscover`), whose OCD phase answers
  the candidates the sets already decide and scans only the rest.

Every row change enters through :meth:`IncrementalFastOD.apply_delta`
as a weighted :class:`~repro.deltalog.DeltaBatch` (an append is an
insert-only batch) or as that batch's :class:`~repro.deltalog.DeltaFold`
— the engine adopts the fold's final relation rather than re-deriving
it, so a caller that already folded a batch (to fingerprint and log it
first) pays for the fold once.  Deletes break the monotonicity: a
removed row can take the only violating pair of any refuted OCD with
it, and the inserts of a mixed batch can break a held one.  So a batch
that deletes rows clears both OCD sets and rediscovers from scratch.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import kernels
from repro.core.candidates import LatticeNode
from repro.core.fastod import FastOD, FastODConfig
from repro.core.results import DiscoveryResult, diff_results
from repro.engine.budget import DeadlineBudget
from repro.engine.executors import SerialExecutor
from repro.engine.planner import LatticePlanner, PartitionBackend
from repro.engine.tasks import FdCheckTask, OcdScanTask
from repro.engine.telemetry import build_timings
from repro.partitions.cache import PartitionCache
from repro.relation.table import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deltalog import DeltaBatch, DeltaFold

FdKey = Tuple[int, int]             # (context mask, attribute)
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
        # the verdicts of the last sweep, exact for the current
        # relation: the ODs it emitted, and every OCD refuted since
        # the last batch that deleted rows (refuted stays refuted
        # under appends)
        self._fd_true: Set[FdKey] = set()
        self._ocd_true: Set[OcdKey] = set()
        self._ocd_false: Set[OcdKey] = set()
        self._n_batches = 0
        # re-checks and rediscoveries run on the calling thread at any
        # worker count (``config.workers`` sizes only the oracle run),
        # on the config's kernel backend
        self._executor = SerialExecutor(self._encoded)
        with kernels.activate(config.kernel_backend):
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

    def apply_delta(self, delta: "DeltaBatch | DeltaFold"
                    ) -> BatchReport:
        """Apply a weighted :class:`~repro.deltalog.DeltaBatch` of
        inserts/deletes/updates (folded here) or its
        :class:`~repro.deltalog.DeltaFold` over :attr:`relation`, and
        refresh the discovered set.

        An insert-only batch re-checks the held ODs
        (:meth:`_recheck`) and rediscovers only if one flipped.  A
        batch that deletes rows, delete-only or mixed, forgets the OCD
        verdicts and rediscovers (:meth:`_rediscover`).
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
        n_old = self._encoded.n_rows
        self._relation = fold.relation
        self._encoded = fold.relation.encode()
        self._executor.rebase(self._encoded)
        with kernels.activate(self._config.kernel_backend):
            if fold.deletes:
                self._ocd_true, self._ocd_false = set(), set()
                retraversed = True
            else:
                retraversed = self._recheck(n_old)
            self._result = (self._rediscover() if retraversed
                            else self._carry_result(previous))
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

    # ------------------------------------------------------------------
    # the append re-check
    # ------------------------------------------------------------------
    def _recheck(self, n_old: int) -> bool:
        """Re-check every held OD on the relation grown past row
        ``n_old``; True when one flipped.  Flipped OCDs move to the
        refuted set, so a rediscovery does not scan them again.

        A new split or swap pair needs an appended row in a class of
        the OD's context, so only the held ODs whose context Π* holds
        one are scanned, in one batch: an FD ``X: [] ↦ A`` for a split
        in A, an OCD for a swap.  Deriving the contexts and scanning
        them both bill the ``recheck`` phase."""
        started = time.perf_counter()
        held = ([(key, key[0], "const", key[1], 0)
                 for key in self._fd_true]
                + [(key, key[0], "swap", key[1], key[2])
                   for key in self._ocd_true])
        cache = PartitionCache(self._encoded)
        contexts = {}
        for mask in {task[1] for task in held}:
            context = cache.get(mask)
            # Π*'s rows are the rows inside classes: an appended one
            # among them can pair with the rest of its class
            if context.rows.max(initial=-1) >= n_old:
                contexts[mask] = context
        tasks = [task for task in held if task[1] in contexts]
        self._executor.telemetry.record(
            "recheck", len(held), False, time.perf_counter() - started)
        verdicts, _ = self._executor.run_scans(
            contexts, tasks, DeadlineBudget.unlimited(), phase="recheck")
        flipped = {key for key, valid in verdicts.items() if not valid}
        refuted = self._ocd_true & flipped
        self._ocd_true -= refuted
        self._ocd_false |= refuted
        return bool(flipped)

    # ------------------------------------------------------------------
    # the level-wise sweep (the shared planner)
    # ------------------------------------------------------------------
    def _rediscover(self) -> DiscoveryResult:
        """FASTOD over the current relation on the engine's executor,
        refilling the verdict sets (construction, every batch that
        deletes rows, and every append that flipped a verdict).  The
        held OCDs going in answer their candidates without a scan;
        coming out, the held sets are exactly the sweep's emitted
        ODs."""
        held, self._ocd_true = self._ocd_true, set()
        self._fd_true = set()
        config = self._config
        return LatticePlanner(
            self._encoded.names, config, _RecordingBackend(self, held),
            DeadlineBudget.unlimited(),
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


class _RecordingBackend(PartitionBackend):
    """FASTOD's partition backend on the engine's executor, recording
    the sweep's verdicts into the engine's sets.  An OCD candidate in
    ``held`` (it held before and was re-checked since) or in the
    refuted set is answered from there; only the rest are scanned."""

    def __init__(self, engine: IncrementalFastOD, held: Set[OcdKey]):
        super().__init__(engine._encoded, engine._config,
                         engine._executor, DeadlineBudget.unlimited())
        self._engine = engine
        self._held = held

    def fd_emitted(self, task: FdCheckTask) -> None:
        super().fd_emitted(task)
        self._engine._fd_true.add((task.context_mask, task.attribute))

    def ocd_verdicts(self, level: int, tasks: List[OcdScanTask],
                     before_previous: Dict[int, LatticeNode]):
        engine = self._engine
        known: Dict[OcdScanTask, bool] = {}
        unknown = []
        for task in tasks:
            key = (task.context_mask, task.a, task.b)
            if key in self._held:
                known[task] = True
                engine._ocd_true.add(key)
            elif key in engine._ocd_false:
                known[task] = False
            else:
                unknown.append(task)
        verdicts, timed_out = super().ocd_verdicts(level, unknown,
                                                   before_previous)
        for task, valid in verdicts.items():
            (engine._ocd_true if valid else engine._ocd_false).add(
                (task.context_mask, task.a, task.b))
        verdicts.update(known)
        return verdicts, timed_out
