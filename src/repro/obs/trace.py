"""Lightweight trace spans: a flame-style timeline per discovery.

Metrics (:mod:`repro.obs.metrics`) answer *how much*; spans answer
*when and inside what*.  A span is a named interval with monotonic
start/end timestamps, a parent id, and free-form fields::

    with trace.span("fd-check", level=3):
        ...

Spans land in a :class:`TraceBuffer` — a bounded ring (old spans fall
off; a runaway traversal can never hoard memory).  Which buffer is
*current* flows through a :class:`contextvars.ContextVar`, so the job
scheduler installs a per-job buffer on its runner thread with
:class:`collect` and every planner/pool span inside that job lands in
it; code outside any ``collect`` block records into the process-wide
:data:`GLOBAL_BUFFER`.  The thread pool runs each share inside a copy
of its caller's context, so the spans of a share land in the caller's
buffer under the caller's open span.

Granularity is deliberately coarse — levels, phases, dispatches, job
lifecycles — never per-candidate, so the always-on cost stays inside
the ≤5 % overhead budget (spans short-circuit entirely when the
metrics registry is disabled).  :meth:`TraceBuffer.export` returns
JSON-ready dicts; :func:`render_timeline` draws them as an aligned
text flame chart for ``repro-od trace``.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics

#: Default ring capacity: a deep lattice sweep emits a few spans per
#: level plus one per pool dispatch — thousands, not millions.
DEFAULT_CAPACITY = 4096


class TraceBuffer:
    """A bounded, thread-safe ring of finished span records.

    Every buffer carries a ``trace_id`` — the correlation key that ties
    span records and ``events.emit`` lines to one logical trace (one
    job, typically).
    """

    __slots__ = ("capacity", "trace_id", "_spans", "_lock", "_next_id")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 trace_id: Optional[str] = None):
        self.capacity = int(capacity)
        self.trace_id = (trace_id if trace_id is not None
                         else new_trace_id())
        self._spans: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._next_id = 0

    def next_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def add(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._spans.append(record)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def export(self) -> List[Dict[str, object]]:
        """JSON-ready records, sorted by start time (parents precede
        children, since a parent starts first)."""
        with self._lock:
            spans = list(self._spans)
        return sorted(spans, key=lambda s: (s["start"], s["id"]))


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (collision odds are irrelevant at
    per-job cardinality; short ids keep event lines readable)."""
    return uuid.uuid4().hex[:16]


#: Spans recorded outside any :class:`collect` block land here.
GLOBAL_BUFFER = TraceBuffer()

#: ``(buffer, parent span id)`` for the current context; ``None``
#: means "global buffer, no parent".
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_state", default=None)


def current_buffer() -> TraceBuffer:
    state = _CURRENT.get()
    return state[0] if state is not None else GLOBAL_BUFFER


def current_span_id() -> int:
    """The id of the innermost open span on this context (0 when no
    span is open — the "no parent" sentinel)."""
    state = _CURRENT.get()
    return state[1] if state is not None else 0


def current_ids() -> Tuple[Optional[str], int]:
    """``(trace_id, span_id)`` when a span is open on this context,
    else ``(None, 0)`` — the shape :func:`repro.obs.events.emit` uses
    to correlate event lines with ``/jobs/{id}/trace``."""
    state = _CURRENT.get()
    if state is None or state[1] == 0:
        return None, 0
    return state[0].trace_id, state[1]


def record_leaf(name: str, start: float, end: float, **fields) -> None:
    """Record one already-timed leaf interval as a span.

    Cheaper than :class:`span` for hot call sites (no context-manager
    frames, no ContextVar set/reset).  No-ops when the registry is
    disabled."""
    if not metrics.REGISTRY._enabled:
        return
    state = _CURRENT.get()
    buffer, parent = state if state is not None else (GLOBAL_BUFFER, 0)
    record: Dict[str, object] = dict(fields)
    record.update(id=buffer.next_id(), parent=parent, name=name,
                  start=start, end=end, seconds=end - start)
    buffer.add(record)


class span:
    """Context manager recording one named interval.

    Free-form keyword ``fields`` ride along in the record (reserved
    keys — ``id``, ``parent``, ``name``, ``start``, ``end``,
    ``seconds``, ``error`` — win on collision).  Exceptions propagate;
    the span is still recorded, tagged with the exception type.
    """

    __slots__ = ("name", "fields", "_buffer", "_id", "_parent",
                 "_token", "_start")

    def __init__(self, name: str, **fields):
        self.name = name
        self.fields = fields
        self._buffer: Optional[TraceBuffer] = None

    def __enter__(self) -> "span":
        if not metrics.REGISTRY._enabled:
            return self
        state: Optional[Tuple[TraceBuffer, int]] = _CURRENT.get()
        buffer, parent = state if state is not None else (
            GLOBAL_BUFFER, 0)
        self._buffer = buffer
        self._id = buffer.next_id()
        self._parent = parent
        self._token = _CURRENT.set((buffer, self._id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._buffer is None:
            return False
        end = time.perf_counter()
        _CURRENT.reset(self._token)
        record: Dict[str, object] = dict(self.fields)
        record.update(id=self._id, parent=self._parent,
                      name=self.name, start=self._start, end=end,
                      seconds=end - self._start)
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._buffer.add(record)
        self._buffer = None
        return False


class collect:
    """Install a buffer as current for the dynamic extent.

    ``with trace.collect() as buffer:`` gives the block (and every
    function it calls on the same thread/context) a private span ring;
    ``buffer.export()`` afterwards is the block's timeline.  The job
    scheduler wraps each job's handler in one of these so
    ``GET /jobs/<id>/trace`` serves exactly that job's spans.
    """

    __slots__ = ("buffer", "_token")

    def __init__(self, buffer: Optional[TraceBuffer] = None,
                 capacity: int = DEFAULT_CAPACITY):
        self.buffer = buffer if buffer is not None else TraceBuffer(
            capacity)

    def __enter__(self) -> TraceBuffer:
        self._token = _CURRENT.set((self.buffer, 0))
        return self.buffer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


def render_timeline(spans: List[Dict[str, object]],
                    width: int = 48) -> str:
    """An aligned text flame chart over exported span records.

    One line per span: a bar positioned/scaled on the common time
    axis, then the name indented by tree depth and the duration."""
    if not spans:
        return "(no spans recorded)"
    t0 = min(float(s["start"]) for s in spans)
    t1 = max(float(s["end"]) for s in spans)
    total = max(t1 - t0, 1e-9)
    depths: Dict[int, int] = {}
    lines = []
    for record in spans:
        depth = depths.get(int(record["parent"]), -1) + 1  # type: ignore
        depths[int(record["id"])] = depth  # type: ignore
        start = float(record["start"])
        seconds = float(record["seconds"])
        offset = int((start - t0) / total * width)
        length = max(1, int(seconds / total * width))
        length = min(length, width - min(offset, width - 1))
        bar = " " * min(offset, width - 1) + "#" * length
        extras = " ".join(
            f"{key}={record[key]}" for key in sorted(record)
            if key not in ("id", "parent", "name", "start", "end",
                           "seconds"))
        label = "  " * depth + str(record["name"])
        lines.append(f"[{bar:<{width}}] {label} "
                     f"{seconds * 1000:8.2f}ms"
                     + (f"  {extras}" if extras else ""))
    return "\n".join(lines)


__all__ = [
    "DEFAULT_CAPACITY",
    "GLOBAL_BUFFER",
    "TraceBuffer",
    "collect",
    "current_buffer",
    "current_ids",
    "current_span_id",
    "new_trace_id",
    "record_leaf",
    "render_timeline",
    "span",
]
