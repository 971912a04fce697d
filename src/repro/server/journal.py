"""A durable, append-only job journal for the discovery service.

A service that dies mid-job should not forget what it owed.  The
journal is a write-ahead log of the service's *intent*: every dataset
registration and every job state transition is appended — LSN-prefixed,
CRC-guarded, fsync'd — before the service acts on it, and replayed on
the next start so a ``kill -9`` loses at most the in-flight traversal,
never the ledger.

Record format
-------------

The shared WAL line discipline of :mod:`repro.deltalog.records` —
``<lsn> <crc32:08x> <canonical json>\n``, strictly increasing LSNs
from 1, CRC over the payload bytes, clean prefix trusted on replay,
one ``write`` + ``fsync`` per record so only the final line can ever
be torn.  The per-dataset delta WAL (:mod:`repro.deltalog.log`) uses
the same primitives, so both logs share one torn-tail recovery story.

Record types
------------

``dataset``
    A relation was registered.  Its registration *source* (the JSON
    body: csv text, rows+columns, or a generator spec) is spooled to
    ``<dir>/datasets/<fingerprint>.json`` so replay can rebuild the
    exact relation without keeping row data in the log itself.
``submitted`` / ``started`` / ``finished``
    Job lifecycle.  ``finished`` carries the terminal status.

Recovery semantics (:meth:`JobJournal.recover`):

* journaled datasets re-register from their spooled sources;
* jobs submitted but never started are *re-queued* under their
  original ids;
* jobs started but never finished were lost mid-run — they are
  surfaced as ``crashed`` (a terminal status), not silently re-run:
  an append job may have externally visible effects, so the honest
  answer is "this one died; resubmit if you want it".

The journal restores *registrations and the job ledger*, not mutated
dataset state: a streaming tenant's finished appends are recorded as
finished jobs but the relation replayed is the originally registered
snapshot (re-running the appends is the client's call).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.deltalog.records import (
    append_record,
    encode_record,
    read_records,
    trusted_length,
)
from repro.errors import ReproError
from repro.obs import metrics

_APPENDS = metrics.counter(
    "repro_journal_appends_total",
    "Journal records durably appended, by record type",
    ("type",))
_ERRORS = metrics.counter(
    "repro_journal_errors_total",
    "Journal appends that failed with an I/O error")
_FSYNC_SECONDS = metrics.histogram(
    "repro_journal_fsync_seconds",
    "Wall-clock seconds per journal append's write+flush+fsync")

JOURNAL_FILENAME = "journal.log"
DATASETS_DIRNAME = "datasets"

#: Job record types replay understands; unknown types are skipped
#: (forward compatibility: an older binary replaying a newer log).
RECORD_TYPES = ("dataset", "submitted", "started", "finished")


class JournalError(ReproError):
    """An unusable journal directory or an append that failed."""


class RecoveredState:
    """What a replayed journal owes the restarting service."""

    __slots__ = ("datasets", "pending_jobs", "crashed_jobs",
                 "finished_jobs", "last_lsn", "max_job_id")

    def __init__(self):
        #: fingerprint -> {"name": ..., "source": spool path or None}
        self.datasets: "Dict[str, Dict]" = {}
        #: submitted, never started — re-queue under original ids
        self.pending_jobs: List[Dict] = []
        #: started, never finished — surface as terminal ``crashed``
        self.crashed_jobs: List[Dict] = []
        self.finished_jobs = 0
        self.last_lsn = 0
        self.max_job_id = 0


def _job_number(job_id: str) -> int:
    """The numeric suffix of ``job-N`` ids (0 for foreign ids)."""
    try:
        return int(str(job_id).rsplit("-", 1)[-1])
    except ValueError:
        return 0


class JobJournal:
    """Owner handle over one journal directory.

    Opening scans the existing log (any clean prefix) so the LSN
    sequence continues where the previous process stopped;
    :meth:`recover` summarises that scan for the service to act on.
    Appends are serialised by a lock and fsync'd one record at a time
    — job throughput, not disk bandwidth, is the service's bottleneck.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / DATASETS_DIRNAME).mkdir(exist_ok=True)
        except OSError as error:
            raise JournalError(
                f"cannot create journal directory {directory!r}: "
                f"{error}") from error
        self.path = self.directory / JOURNAL_FILENAME
        self._records = read_records(self.path)
        self._lsn = self._records[-1]["lsn"] if self._records else 0
        # re-open past the trusted prefix: a torn tail is overwritten
        # by truncating to the prefix before appending anything new
        trusted = trusted_length(self._records)
        self._handle = open(self.path, "ab", buffering=0)
        if self._handle.tell() > trusted:
            self._handle.truncate(trusted)
            self._handle.seek(trusted)
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # append side
    # ------------------------------------------------------------------
    def _append(self, payload: Dict) -> int:
        with self._lock:
            if self._closed:
                return self._lsn          # shutdown race: drop quietly
            started = time.perf_counter()
            try:
                append_record(self._handle,
                              encode_record(self._lsn + 1, payload))
            except OSError as error:
                _ERRORS.inc()
                raise JournalError(
                    f"journal append failed: {error}") from error
            # the LSN is taken only once the record is durable: a
            # failed append leaves no gap for replay to stop at
            self._lsn += 1
            _FSYNC_SECONDS.observe(time.perf_counter() - started)
            _APPENDS.inc(type=str(payload.get("type", "unknown")))
            return self._lsn

    def dataset_registered(self, fingerprint: str, name: str,
                           source: Optional[Dict]) -> None:
        """Journal a registration, spooling its JSON ``source`` body
        (atomically) so replay can rebuild the relation."""
        if source is not None:
            spool = self.dataset_spool(fingerprint)
            tmp = spool.with_suffix(".json.tmp")
            try:
                tmp.write_text(json.dumps(source), encoding="utf-8")
                os.replace(tmp, spool)
            except (OSError, TypeError, ValueError) as error:
                raise JournalError(
                    f"cannot spool dataset source for "
                    f"{fingerprint!r}: {error}") from error
        self._append({"type": "dataset", "fingerprint": fingerprint,
                      "name": name})

    def job_submitted(self, job_id: str, kind: str, fingerprint: str,
                      params: Dict) -> None:
        self._append({"type": "submitted", "id": job_id, "kind": kind,
                      "fingerprint": fingerprint,
                      "params": _json_safe(params)})

    def job_started(self, job_id: str) -> None:
        self._append({"type": "started", "id": job_id})

    def job_finished(self, job_id: str, status: str) -> None:
        self._append({"type": "finished", "id": job_id,
                      "status": status})

    def dataset_spool(self, fingerprint: str) -> Path:
        return (self.directory / DATASETS_DIRNAME
                / f"{fingerprint}.json")

    # ------------------------------------------------------------------
    # replay side
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Fold the trusted prefix into the state the service must
        restore (datasets to re-register, jobs to re-queue or mark
        crashed)."""
        state = RecoveredState()
        jobs: Dict[str, Dict] = {}
        order: List[str] = []
        for record in self._records:
            state.last_lsn = record["lsn"]
            kind = record.get("type")
            if kind == "dataset":
                fp = record["fingerprint"]
                spool = self.dataset_spool(fp)
                state.datasets[fp] = {
                    "name": record.get("name"),
                    "source": spool if spool.exists() else None,
                }
            elif kind == "submitted":
                job = {"id": record["id"], "kind": record["kind"],
                       "fingerprint": record["fingerprint"],
                       "params": record.get("params") or {},
                       "phase": "submitted"}
                jobs[record["id"]] = job
                order.append(record["id"])
                state.max_job_id = max(state.max_job_id,
                                       _job_number(record["id"]))
            elif kind == "started":
                if record["id"] in jobs:
                    jobs[record["id"]]["phase"] = "started"
            elif kind == "finished":
                if record["id"] in jobs:
                    jobs[record["id"]]["phase"] = "finished"
                    state.finished_jobs += 1
        for job_id in order:
            job = jobs[job_id]
            if job["phase"] == "submitted":
                state.pending_jobs.append(job)
            elif job["phase"] == "started":
                state.crashed_jobs.append(job)
        return state

    def read_source(self, fingerprint: str) -> Optional[Dict]:
        """The spooled registration body for a journaled dataset, or
        ``None`` when the spool is missing/corrupt."""
        spool = self.dataset_spool(fingerprint)
        try:
            payload = json.loads(spool.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:  # pragma: no cover - yanked volume
                pass
            self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _json_safe(params: Dict) -> Dict:
    """Journaled params must survive a JSON round-trip; anything that
    cannot is dropped (the replayed job fails loudly rather than the
    journal append failing the live one)."""
    safe = {}
    for key, value in params.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


__all__ = [
    "DATASETS_DIRNAME",
    "JOURNAL_FILENAME",
    "JobJournal",
    "JournalError",
    "RecoveredState",
    "read_records",
]
