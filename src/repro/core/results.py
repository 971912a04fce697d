"""Discovery results and per-level statistics.

The paper reports, per run, the total runtime, the number of set-based
ODs split into FDs and order compatible dependencies (OCDs) — e.g.
``17 (16 + 1)`` in Figure 4 — and per-lattice-level breakdowns
(Figure 7).  :class:`DiscoveryResult` carries all of that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.od import CanonicalFD, CanonicalOCD


@dataclass
class LevelStats:
    """Work done while processing one lattice level ``L_l``."""

    level: int
    n_nodes: int = 0
    n_fd_candidates: int = 0
    n_ocd_candidates: int = 0
    n_fds_found: int = 0
    n_ocds_found: int = 0
    n_nodes_pruned: int = 0
    seconds: float = 0.0
    #: resident partition bytes (the three live lattice levels) while
    #: this level validated — the peak-memory ledger of the engine's
    #: release-two-levels-down policy
    peak_partition_bytes: int = 0

    @property
    def n_ods_found(self) -> int:
        return self.n_fds_found + self.n_ocds_found

    def __str__(self) -> str:
        return (f"L{self.level}: {self.n_nodes} nodes, "
                f"{self.n_ods_found} ODs "
                f"({self.n_fds_found} FDs + {self.n_ocds_found} OCDs), "
                f"{self.seconds * 1000:.1f} ms")


@dataclass
class DiscoveryResult:
    """The output of one discovery run.

    ``fds`` are canonical constancy ODs ``X: [] ↦ A``; ``ocds`` are
    canonical order compatibility ODs ``X: A ~ B``.  For minimal runs
    (the default) this is the complete, minimal set ``M`` of Theorem 8.
    """

    algorithm: str
    attribute_names: Tuple[str, ...]
    n_rows: int
    fds: List[CanonicalFD] = field(default_factory=list)
    ocds: List[CanonicalOCD] = field(default_factory=list)
    level_stats: List[LevelStats] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    minimal: bool = True
    config: Dict[str, object] = field(default_factory=dict)
    #: per-phase executor telemetry (tasks dispatched, serial-vs-pool
    #: split, peak partition residency) — populated by every entry
    #: point that routes through :mod:`repro.engine`; see
    #: :meth:`repro.engine.ExecutorTelemetry.snapshot`
    executor_stats: Optional[Dict[str, object]] = None
    #: per-phase wall clock distilled from ``executor_stats`` plus
    #: per-level seconds — the observability layer's profiling
    #: currency; see :func:`repro.engine.telemetry.build_timings`
    timings: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def all_ods(self) -> List[Union[CanonicalFD, CanonicalOCD]]:
        """All discovered canonical ODs, in a stable canonical order."""
        return sorted(self.fds, key=CanonicalFD.sort_key) + sorted(
            self.ocds, key=CanonicalOCD.sort_key)

    @property
    def n_fds(self) -> int:
        return len(self.fds)

    @property
    def n_ocds(self) -> int:
        return len(self.ocds)

    @property
    def n_ods(self) -> int:
        return self.n_fds + self.n_ocds

    @property
    def constants(self) -> List[CanonicalFD]:
        """FDs with an empty context — whole-column constants, the class
        of ODs the paper shows ORDER missing on the flight data."""
        return [fd for fd in self.fds if fd.is_constant]

    def fds_at_level(self, context_size: int) -> List[CanonicalFD]:
        """FDs whose context has exactly ``context_size`` attributes."""
        return [fd for fd in self.fds if len(fd.context) == context_size]

    def ocds_at_level(self, context_size: int) -> List[CanonicalOCD]:
        """OCDs whose context has exactly ``context_size`` attributes."""
        return [od for od in self.ocds if len(od.context) == context_size]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def paper_counts(self) -> str:
        """The paper's ``total (fds + ocds)`` rendering, e.g.
        ``17 (16 + 1)``."""
        return f"{self.n_ods} ({self.n_fds} + {self.n_ocds})"

    def summary(self) -> str:
        """A multi-line human-readable report."""
        lines = [
            f"{self.algorithm} on {len(self.attribute_names)} attributes "
            f"x {self.n_rows} rows",
            f"  ODs: {self.paper_counts()}"
            + ("" if self.minimal else "  [non-minimal enumeration]"),
            f"  time: {self.elapsed_seconds * 1000:.1f} ms"
            + ("  [TIMED OUT]" if self.timed_out else ""),
        ]
        lines.extend(f"  {stats}" for stats in self.level_stats)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (used by the CLI)."""
        rendered: Dict[str, object] = {
            "algorithm": self.algorithm,
            "attributes": list(self.attribute_names),
            "n_rows": self.n_rows,
            "minimal": self.minimal,
            "timed_out": self.timed_out,
            "elapsed_seconds": self.elapsed_seconds,
            "n_fds": self.n_fds,
            "n_ocds": self.n_ocds,
            "fds": [str(fd) for fd in sorted(self.fds,
                                             key=CanonicalFD.sort_key)],
            "ocds": [str(od) for od in sorted(self.ocds,
                                              key=CanonicalOCD.sort_key)],
            "levels": [
                {
                    "level": s.level,
                    "nodes": s.n_nodes,
                    "fds": s.n_fds_found,
                    "ocds": s.n_ocds_found,
                    "seconds": s.seconds,
                    "peak_partition_bytes": s.peak_partition_bytes,
                }
                for s in self.level_stats
            ],
        }
        if self.executor_stats is not None:
            rendered["executor"] = dict(self.executor_stats)
        if self.timings is not None:
            rendered["timings"] = dict(self.timings)
        return rendered

    def same_ods(self, other: "DiscoveryResult") -> bool:
        """Set equality of the discovered ODs (ignores timings)."""
        return (set(self.fds) == set(other.fds)
                and set(self.ocds) == set(other.ocds))


def od_set(fds: Sequence[CanonicalFD],
           ocds: Sequence[CanonicalOCD]) -> set:
    """A hashable set over mixed canonical ODs (test helper)."""
    return set(fds) | set(ocds)


def diff_results(left: DiscoveryResult, right: DiscoveryResult,
                 max_items: int = 20) -> Optional[str]:
    """Human-readable difference of two results, or None when equal."""
    only_left = od_set(left.fds, left.ocds) - od_set(right.fds, right.ocds)
    only_right = od_set(right.fds, right.ocds) - od_set(left.fds, left.ocds)
    if not only_left and not only_right:
        return None
    lines = []
    if only_left:
        lines.append(f"only in {left.algorithm}:")
        lines.extend(f"  {od}" for od in list(map(str, only_left))[:max_items])
    if only_right:
        lines.append(f"only in {right.algorithm}:")
        lines.extend(
            f"  {od}" for od in list(map(str, only_right))[:max_items])
    return "\n".join(lines)
