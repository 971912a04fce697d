"""One wall-clock budget shared by every layer of a discovery run.

Before the unified engine, each traversal carried its own deadline
arithmetic: :class:`~repro.core.fastod.FastOD` kept a raw
``perf_counter`` deadline and a ``_deadline_hit`` static method, the
hybrid escalation loop had none (a budget could only die *inside* a
wave, and was noticed one full wave later), and the incremental batch
loop re-implemented the "no timeouts here" rule ad hoc.
:class:`DeadlineBudget` replaces all three: the coordinator creates one
per run, and every planner/executor layer — the thread pool's shares
included, through :meth:`DeadlineBudget.hit` — consults the same
instance.
"""

from __future__ import annotations

import time
from typing import Optional


class DeadlineBudget:
    """A best-effort wall-clock budget for one discovery run.

    ``perf_counter`` currency throughout.  An unlimited budget
    (``timeout_seconds=None``) never hits; :meth:`hit` is a cheap
    attribute test so hot loops can consult it per task.

    A budget can also be revoked early: :meth:`cancel` (thread-safe —
    it only sets a flag) makes every subsequent :meth:`hit` return
    True, so a traversal handed a shared budget stops at its next
    check exactly as if the wall clock had expired.  This is how the
    service layer's job scheduler cancels a *running* job: the HTTP
    thread cancels the budget, the planner notices between tasks, and
    the run returns its partial result flagged ``timed_out``.  A
    pool share consults :meth:`hit` before each scan context, so a
    cancel stops a split batch at its next context too.
    """

    __slots__ = ("started", "deadline", "cancelled")

    def __init__(self, timeout_seconds: Optional[float] = None):
        self.started = time.perf_counter()
        self.deadline: Optional[float] = (
            None if timeout_seconds is None
            else self.started + timeout_seconds)
        self.cancelled = False

    @classmethod
    def unlimited(cls) -> "DeadlineBudget":
        """A budget that never expires (incremental traversals, which
        must run to completion to keep their snapshots consistent)."""
        return cls(None)

    @property
    def bounded(self) -> bool:
        return self.deadline is not None

    def cancel(self) -> None:
        """Revoke the budget: every later :meth:`hit` returns True."""
        self.cancelled = True

    def hit(self) -> bool:
        """True once the budget is exhausted or cancelled (always
        False when unbounded and not cancelled)."""
        if self.cancelled:
            return True
        return (self.deadline is not None
                and time.perf_counter() > self.deadline)

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` when unbounded.  Never negative —
        an exhausted (or cancelled) budget reports 0.0, so it can be
        handed to a sub-run's ``timeout_seconds`` directly."""
        if self.cancelled:
            return 0.0
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.deadline is None:
            return "DeadlineBudget(unlimited)"
        return f"DeadlineBudget(remaining={self.remaining():.3f}s)"
