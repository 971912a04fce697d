"""End-to-end observability: metrics, trace spans, structured events.

Three always-on, stdlib-only primitives the whole engine/pool/service
stack bills into:

* :mod:`repro.obs.metrics` — a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms; rendered as JSON (``/stats``) or Prometheus
  text (``/metrics``).
* :mod:`repro.obs.trace` — coarse-grained spans
  (``with trace.span("fd-check", level=3):``) collected into bounded
  per-job ring buffers; served at ``/jobs/<id>/trace`` and rendered by
  ``repro-od trace``.
* :mod:`repro.obs.events` — one-line JSON event records for state
  transitions (journal replays, failed jobs, request access logs),
  stamped with ``trace_id``/``span_id`` when a
  span is active;
* :mod:`repro.obs.profiler` — a stdlib-only sampling stack profiler
  (daemon thread, folded-stack counts; the pool threads running a
  job's shares follow the job's profiler); per-job output served at
  ``/jobs/<id>/profile`` and rendered by ``repro-od profile-job``;
* :mod:`repro.obs.accounting` — per-job ``getrusage`` accounting
  (every thread of the process), attached to job records and
  ``/stats``.

``REPRO_OBS=0`` (or :func:`repro.obs.metrics.set_enabled`) disables
metrics, spans and per-job profiling together;
``benchmarks/bench_obs_overhead.py`` gates the enabled-vs-disabled
difference at ≤5 % wall clock.
"""

from repro.obs import accounting, events, metrics, profiler, trace
from repro.obs.accounting import ResourceAccount, process_rusage
from repro.obs.events import emit, set_sink
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    set_enabled,
)
from repro.obs.profiler import SamplingProfiler, render_folded
from repro.obs.trace import TraceBuffer, collect, render_timeline, span

__all__ = [
    "MetricsRegistry",
    "ResourceAccount",
    "SamplingProfiler",
    "TraceBuffer",
    "accounting",
    "collect",
    "emit",
    "events",
    "get_registry",
    "metrics",
    "process_rusage",
    "profiler",
    "render_folded",
    "render_timeline",
    "set_enabled",
    "set_sink",
    "span",
    "trace",
]
