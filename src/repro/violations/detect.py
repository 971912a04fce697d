"""Violation detection and counting — ODs as data-quality rules.

The paper's motivating use: an OD encodes a business rule ("no employee
pays less tax while earning more"); tuple pairs violating it point at
data errors.  This module finds witnesses (Definitions 4-5), counts
violating pairs exactly, and aggregates reports for list ODs via their
canonical image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.mapping import map_list_od
from repro.core.od import (
    CanonicalFD,
    CanonicalOCD,
    ListOD,
    OrderCompatibility,
)
from repro.core.parser import parse
from repro.core.validation import (
    CanonicalValidator,
    Split,
    Swap,
    scan_find_swap,
    split_mismatch_mask,
    swap_classes,
)
from repro.partitions.partition import StrippedPartition, value_group_sizes
from repro.relation.table import Relation
from repro.violations.fenwick import FenwickSum

Dependency = Union[CanonicalFD, CanonicalOCD, ListOD, OrderCompatibility, str]


@dataclass
class ViolationReport:
    """Outcome of checking one dependency against one relation."""

    dependency: str
    holds: bool
    n_violating_pairs: int = 0
    witnesses: List[Union[Split, Swap]] = field(default_factory=list)
    parts: List["ViolationReport"] = field(default_factory=list)

    def __str__(self) -> str:
        head = ("holds" if self.holds
                else f"violated by {self.n_violating_pairs} tuple pair(s)")
        lines = [f"{self.dependency}: {head}"]
        lines.extend(f"  {witness}" for witness in self.witnesses)
        for part in self.parts:
            if not part.holds:
                lines.append("  via " + str(part).replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-ready rendering (the service API's validate /
        violations job payload)."""
        payload: dict = {
            "dependency": self.dependency,
            "holds": self.holds,
            "n_violating_pairs": self.n_violating_pairs,
            "witnesses": [str(witness) for witness in self.witnesses],
        }
        if self.parts:
            payload["parts"] = [part.to_dict() for part in self.parts]
        return payload


# ----------------------------------------------------------------------
# exact pair counting
# ----------------------------------------------------------------------
def count_split_pairs(column: np.ndarray,
                      context: StrippedPartition) -> int:
    """Number of tuple pairs violating ``X: [] ↦ A``: pairs in the same
    context class with different A values.

    Vectorized over the flat partition layout: all-pairs per class from
    the class sizes, minus the same-value pairs counted by grouping the
    grouped rows on ``(class, value)`` with one ``lexsort``.
    """
    if len(context.rows) == 0:
        return 0
    sizes = context.class_sizes
    all_pairs = int((sizes * (sizes - 1) // 2).sum())
    group_sizes = value_group_sizes(column, context)[0]
    same = int((group_sizes * (group_sizes - 1) // 2).sum())
    return all_pairs - same


def count_swap_pairs(column_a: np.ndarray, column_b: np.ndarray,
                     context: StrippedPartition) -> int:
    """Number of tuple pairs violating ``X: A ~ B``: same-class pairs
    with ``a < a'`` and ``b > b'`` (strict both ways).

    Counted per class by sweeping (A, B) pairs in ascending A order and
    querying, for each element, how many *earlier-A* elements have a
    strictly larger B — a Fenwick prefix-sum over dense B ranks,
    flushed group-by-group so equal-A pairs never count.
    """
    total = 0
    for rows in context.classes:
        pairs = sorted(zip(column_a[rows].tolist(),
                           column_b[rows].tolist()))
        b_values = sorted({b for _, b in pairs})
        b_rank = {value: i for i, value in enumerate(b_values)}
        tree = FenwickSum(len(b_values))
        seen = 0
        group: List[int] = []
        current_a = None
        for value_a, value_b in pairs:
            if value_a != current_a:
                for rank in group:
                    tree.add(rank)
                seen += len(group)
                group = []
                current_a = value_a
            rank = b_rank[value_b]
            # earlier-A elements with B rank strictly above `rank`
            total += seen - tree.prefix_sum(rank)
            group.append(rank)
    return total


# ----------------------------------------------------------------------
# witness collection
# ----------------------------------------------------------------------
def collect_splits(column: np.ndarray, context: StrippedPartition,
                   attribute: str, limit: int) -> List[Split]:
    """Up to ``limit`` split witnesses (one per offending class).

    Offending classes are located with one vectorized segmented
    constancy check; only those classes are touched to extract the
    witness rows.
    """
    rows = context.rows
    if len(rows) == 0:
        return []
    offsets = context.offsets
    mismatch = split_mismatch_mask(column, context)
    per_class = np.add.reduceat(mismatch, offsets[:-1])
    witnesses: List[Split] = []
    for class_id in np.flatnonzero(per_class)[:limit]:
        start, stop = offsets[class_id], offsets[class_id + 1]
        position = start + int(np.argmax(mismatch[start:stop]))
        witnesses.append(
            Split(int(rows[start]), int(rows[position]), attribute))
    return witnesses


def collect_swaps(column_a: np.ndarray, column_b: np.ndarray,
                  context: StrippedPartition, left: str, right: str,
                  limit: int) -> List[Swap]:
    """Up to ``limit`` swap witnesses (one per offending class).

    One vectorized pass (:func:`repro.core.validation.swap_classes`)
    finds the offending classes; the scalar witness scan then runs only
    on those.
    """
    offsets = context.offsets
    witnesses: List[Swap] = []
    for class_id in swap_classes(column_a, column_b, context)[:limit]:
        class_rows = context.rows[offsets[class_id]:offsets[class_id + 1]]
        witness = scan_find_swap(column_a, column_b, class_rows,
                                 left, right)
        if witness is not None:
            witnesses.append(witness)
    return witnesses


# ----------------------------------------------------------------------
# the public checker
# ----------------------------------------------------------------------
class ViolationDetector:
    """Checks dependencies of any supported syntax against a relation.

    ``max_cached_partitions`` caps the resident context partitions
    (LRU) for detectors that outlive one query — e.g. monitoring many
    rules against a large relation; default is unbounded.

    Each verdict is taken once, from the
    :class:`repro.core.validation.CanonicalValidator` executor; witnesses
    and pair counts are computed only for a violated dependency.
    ``workers`` routes big hold-checks through the unified engine's
    pooled executor, which shards them by context class across a
    shared-memory worker pool; witness extraction and pair counting
    stay on the coordinator.
    """

    def __init__(self, relation: Relation,
                 max_cached_partitions: Optional[int] = None,
                 workers: Optional[int] = None,
                 cache=None, pool=None):
        self._relation = relation
        self._validator = CanonicalValidator(
            relation.encode(),
            max_cached_partitions=max_cached_partitions,
            workers=workers, cache=cache, pool=pool)
        self._encoded = self._validator.relation
        self._index = {name: i for i, name in enumerate(self._encoded.names)}

    def close(self) -> None:
        """Release the validator's worker pool, if one was started."""
        self._validator.close()

    def executor_stats(self) -> dict:
        """Per-phase executor telemetry of the underlying validator
        (tasks dispatched, serial-vs-pool split, peak residency)."""
        return self._validator.executor_stats()

    def timings(self) -> dict:
        """Per-phase wall clock of the underlying validator (the
        ``timings`` currency)."""
        return self._validator.timings()

    def check(self, dependency: Dependency, *, max_witnesses: int = 3,
              count_pairs: bool = True) -> ViolationReport:
        """Full violation report for one dependency.

        Strings are parsed first; list ODs are decomposed through
        Theorem 5 and reported with per-part sub-reports.
        """
        if isinstance(dependency, str):
            dependency = parse(dependency)
        if isinstance(dependency, CanonicalFD):
            return self._check_fd(dependency, max_witnesses, count_pairs)
        if isinstance(dependency, CanonicalOCD):
            return self._check_ocd(dependency, max_witnesses, count_pairs)
        if isinstance(dependency, OrderCompatibility):
            as_od = ListOD(dependency.lhs, dependency.rhs)
            image = map_list_od(as_od)
            parts = list(image.ocds)
            return self._check_composite(str(dependency), parts,
                                         max_witnesses, count_pairs)
        if isinstance(dependency, ListOD):
            image = map_list_od(dependency)
            return self._check_composite(str(dependency),
                                         list(image.all_ods),
                                         max_witnesses, count_pairs)
        raise TypeError(f"unsupported dependency object: {dependency!r}")

    # -- leaves ---------------------------------------------------------
    def _context_partition(self, context) -> StrippedPartition:
        mask = 0
        for name in context:
            mask |= 1 << self._index[name]
        return self._validator.cache.get(mask)

    def _check_fd(self, fd: CanonicalFD, max_witnesses: int,
                  count_pairs: bool) -> ViolationReport:
        if self._validator.fd_holds(fd):
            return ViolationReport(str(fd), holds=True)
        partition = self._context_partition(fd.context)
        column = self._encoded.column(self._index[fd.attribute])
        witnesses = (collect_splits(column, partition, fd.attribute,
                                    max_witnesses)
                     if max_witnesses > 0 else [])
        pairs = count_split_pairs(column, partition) if count_pairs else 0
        return ViolationReport(str(fd), False, pairs, witnesses)

    def _check_ocd(self, ocd: CanonicalOCD, max_witnesses: int,
                   count_pairs: bool) -> ViolationReport:
        if self._validator.ocd_holds(ocd):
            return ViolationReport(str(ocd), holds=True)
        partition = self._context_partition(ocd.context)
        column_a = self._encoded.column(self._index[ocd.left])
        column_b = self._encoded.column(self._index[ocd.right])
        witnesses = (collect_swaps(column_a, column_b, partition,
                                   ocd.left, ocd.right, max_witnesses)
                     if max_witnesses > 0 else [])
        pairs = (count_swap_pairs(column_a, column_b, partition)
                 if count_pairs else 0)
        return ViolationReport(str(ocd), False, pairs, witnesses)

    # -- composites -----------------------------------------------------
    def _check_composite(self, label: str, parts: Sequence,
                         max_witnesses: int,
                         count_pairs: bool) -> ViolationReport:
        sub_reports = [
            self.check(part, max_witnesses=max_witnesses,
                       count_pairs=count_pairs)
            for part in parts
        ]
        holds = all(report.holds for report in sub_reports)
        witnesses: List[Union[Split, Swap]] = []
        for report in sub_reports:
            for witness in report.witnesses:
                if len(witnesses) < max_witnesses:
                    witnesses.append(witness)
        pair_count = max(
            (report.n_violating_pairs for report in sub_reports), default=0)
        return ViolationReport(label, holds, pair_count, witnesses,
                               parts=sub_reports)


def check_dependency(relation: Relation, dependency: Dependency,
                     **kwargs) -> ViolationReport:
    """One-shot convenience wrapper around :class:`ViolationDetector`."""
    return ViolationDetector(relation).check(dependency, **kwargs)
