"""Incremental discovery: the discovered OD set kept fresh under row
changes.

The counterpart to :mod:`repro.core.fastod` for a relation that keeps
changing: an append re-checks the ODs that held on fresh partitions
and re-runs the shared planner only when one of them broke; a batch
that deletes rows re-runs it (see DESIGN.md, "Incremental
architecture").
"""

from repro.incremental.engine import BatchReport, IncrementalFastOD

__all__ = [
    "BatchReport",
    "IncrementalFastOD",
]
