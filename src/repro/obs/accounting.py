"""Per-job resource accounting: CPU, RSS, shm bytes, task counts.

Traces answer *where the wall clock went*; this module answers *what
it cost*.  A :class:`ResourceAccount` snapshots
:func:`resource.getrusage` (and the pool's shared-memory byte
counter) when a job starts, accumulates the worker-side rusage
deltas the pool ships back per chunk, and renders one JSON-ready dict
when the job finishes::

    {"cpu_user_seconds": ..., "cpu_system_seconds": ...,
     "max_rss_bytes": ...,
     "coordinator": {...}, "workers": {..., "processes": 2,
                                       "tasks": 14},
     "shm_bytes": ...}

Which account is *current* flows through a ``ContextVar`` installed by
the job scheduler around each job (:class:`track`), exactly like
per-job trace buffers — and because the scheduler serialises jobs on
one runner thread, the metrics-counter delta (shm bytes) is exact
per job, not an approximation.

``getrusage`` notes: ``ru_maxrss`` is a lifetime high-water mark, not
a delta — workers ship it absolute and the account keeps the max;
Linux reports KiB where macOS reports bytes
(:func:`maxrss_bytes` normalises).  ``RUSAGE_CHILDREN`` only covers
*reaped* children, which is why per-job worker CPU arrives explicitly
on the result queue instead.
"""

from __future__ import annotations

import contextvars
import resource
import sys
import threading
from typing import Dict, Optional

from repro.obs import metrics

#: Metric family whose per-job delta the account reports (created by
#: :mod:`repro.parallel.pool` at import; the total is 0 until then).
_SHM_FAMILY = "repro_pool_shm_bytes_total"


def maxrss_bytes(ru_maxrss: int) -> int:
    """Normalise ``ru_maxrss`` to bytes (Linux reports KiB, macOS
    bytes)."""
    if sys.platform == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def _counter_total(name: str) -> float:
    try:
        return float(metrics.get_registry().total(name))
    except Exception:
        return 0.0


def rusage_dict(who: int) -> Dict[str, float]:
    """One ``getrusage`` snapshot as a JSON-ready dict (``/stats``)."""
    ru = resource.getrusage(who)
    return {
        "cpu_user_seconds": round(ru.ru_utime, 6),
        "cpu_system_seconds": round(ru.ru_stime, 6),
        "max_rss_bytes": maxrss_bytes(ru.ru_maxrss),
    }


def process_rusage() -> Dict[str, Dict[str, float]]:
    """Process-lifetime usage for the coordinator and its *reaped*
    children (live pool workers are not in here — per-job worker CPU
    is shipped explicitly and lands in job records)."""
    return {
        "self": rusage_dict(resource.RUSAGE_SELF),
        "children": rusage_dict(resource.RUSAGE_CHILDREN),
    }


class ResourceAccount:
    """Accumulates one job's resource usage across processes."""

    def __init__(self):
        self._lock = threading.Lock()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self._utime0 = ru.ru_utime
        self._stime0 = ru.ru_stime
        self._shm0 = _counter_total(_SHM_FAMILY)
        self.worker_utime = 0.0
        self.worker_stime = 0.0
        self.worker_maxrss = 0
        self.worker_pids: set = set()
        self.worker_tasks = 0
        #: folded-stack sample counts shipped by workers, merged by
        #: the scheduler into the job's coordinator profile
        self.worker_profile: Dict[str, int] = {}

    def add_worker(self, utime: float, stime: float,
                   maxrss: int, pid: int,
                   profile: Optional[Dict[str, int]] = None) -> None:
        """Fold in one worker chunk's shipped usage (pool coordinator
        side, called per collected result)."""
        with self._lock:
            self.worker_utime += float(utime)
            self.worker_stime += float(stime)
            self.worker_maxrss = max(self.worker_maxrss, int(maxrss))
            self.worker_pids.add(int(pid))
            self.worker_tasks += 1
            if profile:
                for stack, n in profile.items():
                    self.worker_profile[stack] = (
                        self.worker_profile.get(stack, 0) + n)

    def finish(self) -> Dict[str, object]:
        """Close the account: coordinator deltas since construction
        plus everything the workers shipped, as one JSON-ready dict."""
        ru = resource.getrusage(resource.RUSAGE_SELF)
        coord_utime = max(0.0, ru.ru_utime - self._utime0)
        coord_stime = max(0.0, ru.ru_stime - self._stime0)
        coord_maxrss = maxrss_bytes(ru.ru_maxrss)
        with self._lock:
            return {
                "cpu_user_seconds": round(
                    coord_utime + self.worker_utime, 6),
                "cpu_system_seconds": round(
                    coord_stime + self.worker_stime, 6),
                "max_rss_bytes": max(coord_maxrss, self.worker_maxrss),
                "coordinator": {
                    "cpu_user_seconds": round(coord_utime, 6),
                    "cpu_system_seconds": round(coord_stime, 6),
                    "max_rss_bytes": coord_maxrss,
                },
                "workers": {
                    "cpu_user_seconds": round(self.worker_utime, 6),
                    "cpu_system_seconds": round(self.worker_stime, 6),
                    "max_rss_bytes": self.worker_maxrss,
                    "processes": len(self.worker_pids),
                    "tasks": self.worker_tasks,
                },
                "shm_bytes": int(
                    _counter_total(_SHM_FAMILY) - self._shm0),
            }


#: The account the current job bills to (``None`` outside a job).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_resource_account", default=None)


def current() -> Optional[ResourceAccount]:
    return _CURRENT.get()


class track:
    """Install an account (or ``None``) for the dynamic extent — the
    job scheduler's per-job wrapper, mirroring ``trace.collect``."""

    __slots__ = ("account", "_token")

    def __init__(self, account: Optional[ResourceAccount]):
        self.account = account

    def __enter__(self) -> Optional[ResourceAccount]:
        self._token = _CURRENT.set(self.account)
        return self.account

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


__all__ = [
    "ResourceAccount",
    "current",
    "maxrss_bytes",
    "process_rusage",
    "rusage_dict",
    "track",
]
