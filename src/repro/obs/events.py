"""Structured event log: one JSON object per line.

State transitions that were previously only visible by polling
``/health`` — journal replay summaries, failed jobs, request access
logs, the final metrics snapshot on signal teardown — are emitted here
as machine-parseable lines::

    {"event": "job.failed", "job": "job-3", "error": "...", "ts": ...}

The default sink is ``sys.stderr`` (stdout belongs to command output;
the serve smoke suite reads it line-by-line).  Tests and embedders
install their own sink with :func:`set_sink`; emission never raises —
a broken pipe on teardown must not take the service down with it.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Callable, Optional

from repro.obs import trace

_LOCK = threading.Lock()
_SINK: Optional[Callable[[str], None]] = None


def set_sink(sink: Optional[Callable[[str], None]]) -> None:
    """Route event lines to ``sink(line)``; ``None`` restores stderr."""
    global _SINK
    _SINK = sink


def emit(event: str, **fields) -> None:
    """Emit one structured event line (sorted keys, one line, JSON).

    When a trace span is open on the calling context the line gains
    ``trace_id``/``span_id`` fields, so any event emitted inside a job
    joins against that job's ``/jobs/{id}/trace`` export.  Explicit
    caller-passed fields win on collision.

    Non-JSON-serializable field values degrade to ``str`` rather than
    failing the caller; I/O errors are swallowed for the same reason.
    """
    payload = {"ts": round(time.time(), 6), "event": event}
    trace_id, span_id = trace.current_ids()
    if trace_id is not None:
        payload["trace_id"] = trace_id
        payload["span_id"] = span_id
    payload.update(fields)
    try:
        line = json.dumps(payload, sort_keys=True, default=str)
    except (TypeError, ValueError):  # pragma: no cover - default=str
        line = json.dumps({"ts": payload["ts"], "event": event})
    sink = _SINK
    with _LOCK:
        try:
            if sink is not None:
                sink(line)
            else:
                print(line, file=sys.stderr, flush=True)
        except (OSError, ValueError):
            pass


__all__ = ["emit", "set_sink"]
