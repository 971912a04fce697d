"""A stdlib-only sampling profiler: collapsed flamegraph text per job.

Spans (:mod:`repro.obs.trace`) say *when and inside what* at phase
granularity; the profiler says *which Python frames* the time actually
went to.  A :class:`SamplingProfiler` is a daemon thread that wakes
every ``interval`` seconds, grabs the target thread's frame via
:func:`sys._current_frames`, folds the stack into a
``module:func;module:func`` string, and bumps a counter — the
classic collapsed/folded flamegraph format::

    fastod:run;lattice:process_level;partition:product 42

The job scheduler starts one profiler targeting its runner thread
per job and renders the counts as ``GET /jobs/{id}/profile`` /
``repro-od profile-job``; ``--profile`` on the CLI does the same for
the command's main thread.  Installed with :class:`track`, a profiler
also samples every thread that enters :func:`follow` inside the
tracked context: the thread pool wraps each share in it, so the
pool's threads are sampled while they run the job's work (their
stacks fold in root-first like any other).

Sampling costs one stack walk per tick (~microseconds at the default
5 ms interval); a stopped/never-started profiler costs nothing.  The
profiler takes one synchronous sample on :meth:`start` and one on
:meth:`stop`, so even a job shorter than one tick exports a non-empty
profile.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Default wall-clock seconds between samples: ~200 Hz, coarse enough
#: to be invisible next to kernel work, fine enough that a one-second
#: job collects hundreds of samples.
DEFAULT_INTERVAL = 0.005

#: Bound on the folded stack depth: recursion-heavy frames collapse
#: into their first 64 levels instead of producing unbounded keys.
_STACK_DEPTH_LIMIT = 64


def _fold_frame(frame) -> str:
    """One frame object -> ``module:func;...`` root-first fold."""
    parts = []
    depth = 0
    while frame is not None and depth < _STACK_DEPTH_LIMIT:
        code = frame.f_code
        stem = os.path.splitext(os.path.basename(code.co_filename))[0]
        parts.append(f"{stem}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


def subtract(counts: Dict[str, int],
             baseline: Dict[str, int]) -> Dict[str, int]:
    """``counts - baseline`` per stack, dropping empty rows."""
    delta = {}
    for stack, n in counts.items():
        d = n - baseline.get(stack, 0)
        if d > 0:
            delta[stack] = d
    return delta


def merge_counts(into: Dict[str, int], other: Dict[str, int],
                 prefix: Optional[str] = None) -> Dict[str, int]:
    """Fold ``other`` into ``into`` (mutated and returned), optionally
    re-rooting every stack under ``prefix``."""
    for stack, n in other.items():
        key = f"{prefix};{stack}" if prefix else stack
        into[key] = into.get(key, 0) + n
    return into


def render_folded(counts: Dict[str, int]) -> str:
    """Collapsed flamegraph text: one ``stack count`` line per stack,
    heaviest first (ties broken lexically for determinism)."""
    lines = [f"{stack} {n}" for stack, n in
             sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    return "\n".join(lines)


class SamplingProfiler:
    """Periodic stack sampler for one target thread, plus the threads
    currently following it (:func:`follow`).

    ``thread_id`` defaults to the *calling* thread — the common case
    is "profile me": the job runner profiles itself.  The sampler runs
    on its own daemon thread and never samples itself.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 thread_id: Optional[int] = None):
        self.interval = float(interval)
        self._target = (thread_id if thread_id is not None
                        else threading.get_ident())
        #: thread ident -> how many :func:`follow` extents it is in
        self._followers: Dict[int, int] = {}
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def retarget(self, thread_id: Optional[int] = None) -> None:
        """Point the sampler at another thread (default: the calling
        one)."""
        self._target = (thread_id if thread_id is not None
                        else threading.get_ident())

    def add_follower(self, thread_id: int) -> None:
        with self._lock:
            self._followers[thread_id] = (
                self._followers.get(thread_id, 0) + 1)

    def drop_follower(self, thread_id: int) -> None:
        with self._lock:
            left = self._followers.pop(thread_id, 0) - 1
            if left > 0:
                self._followers[thread_id] = left

    def sample_once(self) -> None:
        """Take one synchronous sample of the target thread and every
        follower (callable from any thread, including a target)."""
        frames = sys._current_frames()
        with self._lock:
            targets = {self._target, *self._followers}
        stacks = [_fold_frame(frames[ident]) for ident in targets
                  if ident in frames]
        del frames
        with self._lock:
            for stack in stacks:
                self._counts[stack] = self._counts.get(stack, 0) + 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._thread = None
        self.sample_once()

    def counts(self) -> Dict[str, int]:
        """A snapshot copy of the folded-stack counts so far."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()

    def render(self) -> str:
        return render_folded(self.counts())


#: The profiler the current context's work is sampled by (``None``
#: outside a profiled job or command).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_profiler", default=None)


class track:
    """Install a profiler (or ``None``) as the current context's for
    the dynamic extent — the job scheduler's per-job wrapper, mirroring
    ``trace.collect``."""

    __slots__ = ("profiler", "_token")

    def __init__(self, profiler: Optional[SamplingProfiler]):
        self.profiler = profiler

    def __enter__(self) -> Optional[SamplingProfiler]:
        self._token = _CURRENT.set(self.profiler)
        return self.profiler

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


@contextmanager
def follow() -> Iterator[None]:
    """Have the current context's profiler, if any, also sample the
    calling thread for the extent (the thread pool's shares run in a
    copy of their caller's context, so they find the job's profiler
    here)."""
    profiler = _CURRENT.get()
    if profiler is None:
        yield
        return
    ident = threading.get_ident()
    profiler.add_follower(ident)
    try:
        yield
    finally:
        profiler.drop_follower(ident)


__all__ = [
    "DEFAULT_INTERVAL",
    "SamplingProfiler",
    "follow",
    "merge_counts",
    "render_folded",
    "subtract",
    "track",
]
