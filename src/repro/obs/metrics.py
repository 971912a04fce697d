"""A process-wide, thread-safe metrics registry.

The paper's experiments live on wall-clock and per-level traversal
cost; this registry is the substrate that makes those measurable *in
situ* instead of post-hoc.  Three instrument kinds, modelled on the
Prometheus client data model but stdlib-only:

* :class:`Counter` — monotonically increasing totals (tasks resolved,
  cache hits, faults fired);
* :class:`Gauge` — last-write-wins levels (queue depth, resident
  bytes);
* :class:`Histogram` — fixed-bucket latency/size distributions
  (per-level seconds, dispatch wall clock, journal fsync time).

Design constraints, in order:

1. **Cheap enough to be always on.**  An increment is one dict lookup
   and one addition under a per-family lock; a disabled registry
   short-circuits before taking the lock.  The ≤5 % overhead budget is
   enforced by ``benchmarks/bench_obs_overhead.py``.
2. **One registry per process.**  Module-level :data:`REGISTRY` is the
   default every instrumented module bills to, from any thread — the
   thread pool's shares included.
3. **Two renderings of the same truth**: :meth:`MetricsRegistry.
   snapshot` (JSON, served at ``/stats``) and
   :meth:`MetricsRegistry.render_prometheus` (text exposition format,
   served at ``/metrics``).

Instrument families are created idempotently — ``counter("x")`` twice
returns the same family — so import order never matters.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import threading
from typing import Dict, List, Sequence, Tuple

#: Default histogram buckets (seconds): sub-millisecond kernels up to
#: minute-scale discovery runs.  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Byte-sized histograms (payload sizes): 1 KiB .. 1 GiB.
BYTE_BUCKETS: Tuple[float, ...] = tuple(
    float(1 << shift) for shift in range(10, 31, 2))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    """Prometheus-style float rendering; integers stay integral."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


class _Family:
    """One named metric family; label tuples key its children."""

    kind = "untyped"

    __slots__ = ("name", "help", "labelnames", "_values", "_lock",
                 "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str, labelnames: Sequence[str]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._registry = registry
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._values: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        try:
            return tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as error:
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}") from error

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    # -- introspection ---------------------------------------------------
    def items(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._values.items())

    def label_dicts(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Family):
    kind = "counter"

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))


class Gauge(_Family):
    kind = "gauge"

    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        if not self._registry._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))


class Histogram(_Family):
    kind = "histogram"

    __slots__ = ("buckets",)

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str, labelnames: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{name}: histogram needs >= 1 bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        if not self._registry._enabled:
            return
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                # per-bucket (non-cumulative) counts, sum, count
                state = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._values[key] = state
            state[0][index] += 1
            state[1] += value
            state[2] += 1

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            return int(state[2]) if state else 0

    def sum(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            return float(state[1]) if state else 0.0


class MetricsRegistry:
    """Owner of every metric family in this process.

    Family constructors are idempotent: asking for an existing name
    returns the existing family (and raises ``ValueError`` if the
    kind, labels, or buckets disagree — two modules silently billing
    different shapes to one name is a bug worth failing on).
    """

    def __init__(self, enabled: bool = True):
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()
        self._enabled = bool(enabled)

    # -- enable/disable ---------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = bool(enabled)

    # -- family constructors ----------------------------------------------
    def _family(self, cls, name: str, help_text: str,
                labelnames: Sequence[str], **extra) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name!r} re-registered with a "
                        f"different shape")
                return existing
            family = cls(self, name, help_text, labelnames, **extra)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._family(Histogram, name, help_text, labelnames,
                            buckets=buckets)

    # -- reads -------------------------------------------------------------
    def value(self, name: str, **labels) -> float:
        """One counter/gauge child's current value (0 if unset)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return family.value(**labels)  # type: ignore[attr-defined]

    def total(self, name: str, **labels) -> float:
        """Sum a counter/gauge family over every child matching the
        given label *subset* (no labels = the whole family)."""
        family = self._families.get(name)
        if family is None or isinstance(family, Histogram):
            return 0.0
        total = 0.0
        for key, value in family.items():
            child = family.label_dicts(key)
            if all(child.get(k) == str(v) for k, v in labels.items()):
                total += float(value)  # type: ignore[arg-type]
        return total

    def reset(self) -> None:
        """Zero every family's children (families stay registered) —
        test/benchmark isolation, never called in production paths."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.clear()

    # -- renderings ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-ready dump of every family (the ``/stats`` body)."""
        out: Dict[str, Dict] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            rendered: Dict[str, object] = {
                "type": family.kind,
                "help": family.help,
                "values": [],
            }
            values: List[Dict] = rendered["values"]  # type: ignore
            for key, value in family.items():
                entry: Dict[str, object] = {
                    "labels": family.label_dicts(key)}
                if isinstance(family, Histogram):
                    counts, total, count = value  # type: ignore
                    cumulative, buckets = 0, {}
                    for bound, n in zip(family.buckets, counts):
                        cumulative += n
                        buckets[_format_value(bound)] = cumulative
                    buckets["+Inf"] = count
                    entry.update(count=count, sum=total,
                                 buckets=buckets)
                else:
                    entry["value"] = value
                values.append(entry)
            out[name] = rendered
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (``/metrics``)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, value in family.items():
                labels = family.label_dicts(key)
                if isinstance(family, Histogram):
                    counts, total, count = value  # type: ignore
                    cumulative = 0
                    for bound, n in zip(family.buckets, counts):
                        cumulative += n
                        bucket = dict(labels,
                                      le=_format_value(bound))
                        lines.append(f"{name}_bucket"
                                     f"{_render_labels(bucket)} "
                                     f"{cumulative}")
                    bucket = dict(labels, le="+Inf")
                    lines.append(f"{name}_bucket"
                                 f"{_render_labels(bucket)} {count}")
                    lines.append(f"{name}_sum{_render_labels(labels)} "
                                 f"{_format_value(total)}")
                    lines.append(f"{name}_count"
                                 f"{_render_labels(labels)} {count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format_value(value)}")  # type: ignore
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "1").strip().lower() not in (
        "0", "false", "off", "no")


#: The process-wide default registry every instrumented module bills
#: to.  ``REPRO_OBS=0`` boots it disabled (the overhead benchmark's
#: control arm); :func:`set_enabled` flips it at runtime.
REGISTRY = MetricsRegistry(enabled=_env_enabled())


def get_registry() -> MetricsRegistry:
    return REGISTRY


def set_enabled(enabled: bool) -> None:
    """Enable/disable the process-wide registry (and trace spans)."""
    REGISTRY.set_enabled(enabled)


def enabled() -> bool:
    return REGISTRY._enabled


def counter(name: str, help_text: str = "",
            labelnames: Sequence[str] = ()) -> Counter:
    """A counter on the process-wide registry."""
    return REGISTRY.counter(name, help_text, labelnames)


def gauge(name: str, help_text: str = "",
          labelnames: Sequence[str] = ()) -> Gauge:
    """A gauge on the process-wide registry."""
    return REGISTRY.gauge(name, help_text, labelnames)


def histogram(name: str, help_text: str = "",
              labelnames: Sequence[str] = (),
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    """A histogram on the process-wide registry."""
    return REGISTRY.histogram(name, help_text, labelnames, buckets)


__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "enabled",
    "gauge",
    "get_registry",
    "histogram",
    "set_enabled",
]
