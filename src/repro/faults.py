"""Deterministic, seedable fault injection for chaos testing.

A long-lived service earns trust by *proving* its behavior under
failure, not by hoping crashes are rare.  This module is the single
registry of injection points the server and storage layers consult:
each *site* names one failure the production code path must survive,
and a :class:`FaultPlan` decides — deterministically, from a seed —
whether a given visit to a site fires.

Sites
-----

``store.write``
    Raise ``OSError`` inside the result store's disk write (full
    disk, yanked volume).
``jobs.start.delay``
    Sleep on the scheduler's runner thread right after a job flips to
    ``running`` — widens the window crash-recovery tests kill into.
``budget.cancel``
    Revoke a job's deadline budget right after it starts (the
    cancel-races-crash scenario).
``deltalog.append``
    Raise :class:`~repro.deltalog.DeltaLogError` inside the delta
    WAL's append, *before* anything is written — the delta job fails
    and the log stays at its previous LSN (nothing half-applied
    replays).
``deltalog.replay``
    Raise during boot-time delta-log replay — the service skips that
    dataset (an honest 404) rather than serving stale pre-delta
    state, and counts a ``delta_errors`` in ``/health``.

Activation
----------

Explicitly — ``faults.install(FaultPlan(seed=7, rates={...}))``, or
the :func:`injected` context manager in tests — or via the
``REPRO_FAULT_PLAN`` environment variable holding the plan as JSON
(``{"seed": 7, "rates": {"store.write": 0.5}, "limits": ...,
"delays": ...}``), which is how subprocess tests arm a real
``repro-od serve``.  With no plan installed every hook is a single
``None`` check — production runs pay nothing.

Determinism: each site draws from its own ``random.Random`` seeded
with ``f"{seed}:{site}"``, so adding a new site (or reordering calls
across sites) never perturbs another site's firing sequence.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.obs import metrics

_FIRED = metrics.counter(
    "repro_faults_fired_total",
    "Armed fault-plan injections that actually fired, by site",
    ("site",))

#: Every site the library consults, wired where the docstring says.
SITES = (
    "store.write",
    "jobs.start.delay",
    "budget.cancel",
    "deltalog.append",
    "deltalog.replay",
)

#: Default sleep (seconds) for delay-shaped sites without an explicit
#: per-site entry in ``FaultPlan.delays``.
DEFAULT_DELAY_SECONDS = 0.05


class FaultInjected(ReproError):
    """An error raised by an armed injection site (never in
    production: no plan, no raise)."""


class FaultPlan:
    """A deterministic schedule of which site visits fail.

    ``rates`` maps site -> probability per visit; ``limits`` maps
    site -> max firings (per process); ``delays`` maps site -> sleep
    seconds for the delay-shaped sites.  Unknown site names are
    rejected so a typo cannot silently disable a fault.
    """

    def __init__(self, seed: int = 0,
                 rates: Optional[Dict[str, float]] = None,
                 limits: Optional[Dict[str, int]] = None,
                 delays: Optional[Dict[str, float]] = None):
        for mapping in (rates, limits, delays):
            unknown = set(mapping or ()) - set(SITES)
            if unknown:
                raise ValueError(
                    f"unknown fault site(s) {sorted(unknown)}; "
                    f"known: {list(SITES)}")
        self.seed = int(seed)
        self.rates = dict(rates or {})
        self.limits = dict(limits or {})
        self.delays = dict(delays or {})
        self.fired: Dict[str, int] = {}
        #: chronological (site, visit_index) log of firings — what a
        #: chaos test prints when an assertion fails
        self.log: List[str] = []
        self._visits: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(seed=payload.get("seed", 0),
                   rates=payload.get("rates"),
                   limits=payload.get("limits"),
                   delays=payload.get("delays"))

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = random.Random(f"{self.seed}:{site}")
            self._rngs[site] = rng
        return rng

    def fire(self, site: str) -> bool:
        """One visit to ``site``: True when the fault fires."""
        rate = self.rates.get(site, 0.0)
        with self._lock:
            self._visits[site] = self._visits.get(site, 0) + 1
            if rate <= 0.0:
                return False
            limit = self.limits.get(site)
            if limit is not None and self.fired.get(site, 0) >= limit:
                return False
            hit = self._rng(site).random() < rate
            if hit:
                self.fired[site] = self.fired.get(site, 0) + 1
                self.log.append(
                    f"{site}#{self._visits[site]}")
                _FIRED.inc(site=site)
            return hit

    def delay_seconds(self, site: str) -> float:
        return self.delays.get(site, DEFAULT_DELAY_SECONDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(seed={self.seed}, rates={self.rates}, "
                f"fired={self.fired})")


# ----------------------------------------------------------------------
# the process-wide active plan
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide."""
    global _PLAN, _ENV_CHECKED
    _PLAN = plan
    _ENV_CHECKED = True


def clear() -> None:
    """Disarm fault injection (and stop re-reading the env var)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = True


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, reading ``REPRO_FAULT_PLAN`` once if nothing
    was installed explicitly."""
    global _PLAN, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        raw = os.environ.get("REPRO_FAULT_PLAN", "").strip()
        if raw:
            _PLAN = FaultPlan.from_json(raw)
    return _PLAN


class injected:
    """``with faults.injected(plan): ...`` — install for one block."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: Optional[FaultPlan] = None
        self._previous_checked = False

    def __enter__(self) -> FaultPlan:
        global _PLAN, _ENV_CHECKED
        self._previous = _PLAN
        self._previous_checked = _ENV_CHECKED
        install(self.plan)
        return self.plan

    def __exit__(self, exc_type, exc, tb) -> None:
        global _PLAN, _ENV_CHECKED
        _PLAN = self._previous
        _ENV_CHECKED = self._previous_checked


# ----------------------------------------------------------------------
# the hooks production code calls
# ----------------------------------------------------------------------
def fire(site: str) -> bool:
    """True when an armed plan fires ``site`` on this visit.  A bare
    ``None`` check when no plan is armed."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.fire(site)


def maybe_raise(site: str, message: str,
                exc_type: type = FaultInjected) -> None:
    """Raise ``exc_type(message)`` when ``site`` fires."""
    if fire(site):
        raise exc_type(f"[fault:{site}] {message}")


def maybe_sleep(site: str) -> None:
    """Sleep the plan's per-site delay when ``site`` fires."""
    plan = active_plan()
    if plan is not None and plan.fire(site):
        time.sleep(plan.delay_seconds(site))


__all__ = [
    "DEFAULT_DELAY_SECONDS",
    "FaultInjected",
    "FaultPlan",
    "SITES",
    "active_plan",
    "clear",
    "fire",
    "injected",
    "install",
    "maybe_raise",
    "maybe_sleep",
]
