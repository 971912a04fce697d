"""Per-job resource accounting: CPU and RSS.

Traces answer *where the wall clock went*; this module answers *what
it cost*.  A :class:`ResourceAccount` snapshots
:func:`resource.getrusage` when a job starts and renders one
JSON-ready dict when the job finishes::

    {"cpu_user_seconds": ..., "cpu_system_seconds": ...,
     "max_rss_bytes": ...}

``RUSAGE_SELF`` covers every thread of the process, so the pool
threads a job's batches run on are billed with it: the scheduler runs
one job at a time, which makes the CPU delta exact per job.

``getrusage`` notes: ``ru_maxrss`` is a lifetime high-water mark, not
a delta; Linux reports KiB where macOS reports bytes
(:func:`maxrss_bytes` normalises).
"""

from __future__ import annotations

import resource
import sys
from typing import Dict


def maxrss_bytes(ru_maxrss: int) -> int:
    """Normalise ``ru_maxrss`` to bytes (Linux reports KiB, macOS
    bytes)."""
    if sys.platform == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def rusage_dict(who: int) -> Dict[str, float]:
    """One ``getrusage`` snapshot as a JSON-ready dict (``/stats``)."""
    ru = resource.getrusage(who)
    return {
        "cpu_user_seconds": round(ru.ru_utime, 6),
        "cpu_system_seconds": round(ru.ru_stime, 6),
        "max_rss_bytes": maxrss_bytes(ru.ru_maxrss),
    }


def process_rusage() -> Dict[str, Dict[str, float]]:
    """Process-lifetime usage for the process (every thread) and its
    reaped children (``repro-od`` subprocesses, if any)."""
    return {
        "self": rusage_dict(resource.RUSAGE_SELF),
        "children": rusage_dict(resource.RUSAGE_CHILDREN),
    }


class ResourceAccount:
    """One job's CPU and peak RSS, from ``getrusage`` deltas."""

    def __init__(self):
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self._utime0 = ru.ru_utime
        self._stime0 = ru.ru_stime

    def finish(self) -> Dict[str, object]:
        """Close the account: the process's deltas since construction
        as one JSON-ready dict."""
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "cpu_user_seconds": round(
                max(0.0, ru.ru_utime - self._utime0), 6),
            "cpu_system_seconds": round(
                max(0.0, ru.ru_stime - self._stime0), 6),
            "max_rss_bytes": maxrss_bytes(ru.ru_maxrss),
        }


__all__ = [
    "ResourceAccount",
    "maxrss_bytes",
    "process_rusage",
    "rusage_dict",
]
