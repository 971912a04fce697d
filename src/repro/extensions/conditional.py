"""Conditional ODs — dependencies that hold on portions of a relation.

The last of the paper's Section 7 future-work items: like conditional
FDs, a conditional OD pairs a canonical OD with a *condition* (a
conjunction of attribute = constant selections); the OD must hold on
the selected fragment even though it may fail globally.

Discovery strategy (mirroring CFD discovery practice):

1. choose condition attributes with small active domains,
2. for every condition (up to a conjunct bound) with enough support,
   run FASTOD on the fragment,
3. keep fragment-minimal ODs that do **not** already hold globally
   (those are redundant — a conditional OD is interesting precisely
   because the condition is necessary), and
4. merge conditions: when an OD holds under *every* value of a
   condition attribute it is promoted (the attribute joins the OD's
   context instead — exactly what the canonical context expresses), so
   such pseudo-conditionals are filtered too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.fastod import FastOD, FastODConfig
from repro.core.od import CanonicalFD, CanonicalOCD
from repro.core.validation import CanonicalValidator
from repro.engine.budget import DeadlineBudget
from repro.engine.telemetry import build_timings
from repro.relation.table import Relation

CanonicalOD = Union[CanonicalFD, CanonicalOCD]

#: One condition: a conjunction of (attribute, value) equalities.
Condition = Tuple[Tuple[str, object], ...]


def condition_text(condition: Condition) -> str:
    return " AND ".join(f"{attr}={value!r}" for attr, value in condition)


@dataclass(frozen=True)
class ConditionalOD:
    """A canonical OD valid on the fragment selected by ``condition``."""

    condition: Condition
    od: CanonicalOD
    support: float          # fragment size / relation size

    def __str__(self) -> str:
        return (f"[{condition_text(self.condition)}] {self.od}  "
                f"(support={self.support:.2f})")


@dataclass
class ConditionalDiscoveryResult:
    """All conditional ODs found under the configured bounds."""

    ods: List[ConditionalOD] = field(default_factory=list)
    n_fragments_examined: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    #: per-phase executor telemetry of the global validator (fragment
    #: runs carry their own in their DiscoveryResults)
    executor_stats: Optional[Dict[str, object]] = None
    #: per-phase wall clock distilled from ``executor_stats`` (the
    #: ``timings`` currency)
    timings: Optional[Dict[str, object]] = None

    def for_condition(self, condition: Condition) -> List[ConditionalOD]:
        return [c for c in self.ods if c.condition == condition]

    def conditions(self) -> List[Condition]:
        seen: Dict[Condition, None] = {}
        for item in self.ods:
            seen.setdefault(item.condition, None)
        return list(seen)


def _condition_attributes(relation: Relation,
                          max_domain: int) -> List[str]:
    return [
        name for name in relation.names
        if 2 <= len(set(relation.column(name))) <= max_domain
    ]


def _fragments(relation: Relation, attributes: Sequence[str],
               max_conjuncts: int, min_support: float):
    """Yield (condition, row indices) with enough support."""
    n_rows = max(relation.n_rows, 1)
    for width in range(1, max_conjuncts + 1):
        for attrs in combinations(attributes, width):
            groups: Dict[tuple, List[int]] = {}
            columns = [relation.column(a) for a in attrs]
            for row in range(relation.n_rows):
                key = tuple(col[row] for col in columns)
                groups.setdefault(key, []).append(row)
            for key, rows in groups.items():
                if len(rows) / n_rows >= min_support and len(rows) >= 2:
                    condition = tuple(zip(attrs, key))
                    yield condition, rows


def discover_conditional_ods(relation: Relation, *,
                             min_support: float = 0.1,
                             max_conjuncts: int = 1,
                             max_condition_domain: int = 12,
                             max_level: Optional[int] = 3,
                             workers: Optional[int] = None,
                             timeout_seconds: Optional[float] = None
                             ) -> ConditionalDiscoveryResult:
    """Find canonical ODs that hold conditionally but not globally.

    Per-fragment discovery and the global redundancy filter both route
    through the unified engine, so ``workers`` splits big fragments'
    level work across threads (the global validator's
    single-dependency scans stay on the calling thread), and
    ``timeout_seconds`` is one
    :class:`~repro.engine.DeadlineBudget` shared across fragments
    (each fragment run receives the remaining budget; a timed-out
    sweep returns the conditionals confirmed so far flagged
    ``timed_out``).

    Parameters
    ----------
    min_support:
        Minimum fragment fraction for a condition to be examined.
    max_conjuncts:
        Maximum number of equality conjuncts per condition.
    max_condition_domain:
        Only attributes with at most this many distinct values are
        used to build conditions (mirrors CFD practice).
    max_level:
        Lattice cap for the per-fragment FASTOD runs; conditional ODs
        with huge contexts are rarely interesting and fragments are
        many.
    workers:
        Threads for fragment discovery (``None`` defers to
        ``REPRO_WORKERS``; 1 = serial).
    timeout_seconds:
        Best-effort wall-clock budget for the whole sweep.
    """
    started = time.perf_counter()
    budget = DeadlineBudget(timeout_seconds)
    result = ConditionalDiscoveryResult()
    global_validator = CanonicalValidator(relation.encode())
    attributes = _condition_attributes(relation, max_condition_domain)
    try:
        for condition, rows in _fragments(relation, attributes,
                                          max_conjuncts, min_support):
            if budget.hit():
                result.timed_out = True
                break
            result.n_fragments_examined += 1
            condition_attrs = {attr for attr, _ in condition}
            fragment = relation.select_rows(rows)
            fragment_ods = FastOD(
                fragment, FastODConfig(
                    max_level=max_level, workers=workers,
                    timeout_seconds=budget.remaining())).run()
            if fragment_ods.timed_out:
                result.timed_out = True
                break
            support = len(rows) / max(relation.n_rows, 1)
            for od in fragment_ods.all_ods:
                if _mentions(od, condition_attrs):
                    # On the fragment a condition attribute is
                    # constant, so ODs about it are artifacts of the
                    # selection.
                    continue
                if global_validator.holds(od):
                    continue    # not conditional: already true globally
                result.ods.append(ConditionalOD(condition, od, support))
    finally:
        result.executor_stats = global_validator.executor_stats()
        result.timings = build_timings(result.executor_stats)
        global_validator.close()
    result.ods.sort(key=lambda c: (-c.support, str(c)))
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _mentions(od: CanonicalOD, attributes: set) -> bool:
    if isinstance(od, CanonicalFD):
        involved = set(od.context) | {od.attribute}
    else:
        involved = set(od.context) | {od.left, od.right}
    return bool(involved & attributes)


def verify_conditional(relation: Relation,
                       conditional: ConditionalOD) -> bool:
    """Re-check one conditional OD: it must hold on the fragment and
    (to be genuinely conditional) fail on the full relation."""
    rows = [
        row for row in range(relation.n_rows)
        if all(relation.column(attr)[row] == value
               for attr, value in conditional.condition)
    ]
    fragment = relation.select_rows(rows)
    holds_on_fragment = CanonicalValidator(
        fragment.encode()).holds(conditional.od)
    holds_globally = CanonicalValidator(
        relation.encode()).holds(conditional.od)
    return holds_on_fragment and not holds_globally
