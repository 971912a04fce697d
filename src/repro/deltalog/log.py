"""The per-dataset delta WAL: an append-only, replayable Z-set log.

One :class:`DeltaLog` file per registered dataset (keyed by the
dataset's *root* fingerprint — the content hash at first registration,
stable across re-keying).  Every record is one
:class:`~repro.deltalog.model.DeltaBatch` plus the content
fingerprints before/after it applied, under the shared record
discipline of :mod:`repro.deltalog.records`: LSN-prefixed,
CRC-guarded, one ``write`` + ``fsync`` per record, clean
prefix trusted on reopen, torn tail truncated before the next append.

The same log is three things at once (the DBSP/Z-set unified-WAL
shape): the incremental engine's input stream, the crash-recovery WAL
(boot replays it over the spooled registration to rebuild warm
catalog state), and — because any clean prefix replays to a
consistent snapshot whose fingerprint the record carries — a
replication/verification stream.

Discipline: the scheduler appends a delta *before* applying it.  Once
the fsync returns, the delta happened — a crash between append and
apply is repaired at boot by replay, never lost.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

from repro import faults
from repro.deltalog.model import DeltaBatch
from repro.deltalog.records import (
    append_record,
    encode_record,
    read_records,
    trusted_length,
)
from repro.errors import ReproError
from repro.obs import metrics, trace

_APPENDS = metrics.counter(
    "repro_deltalog_appends_total",
    "Delta batches durably appended to dataset WALs")
_APPEND_OPS = metrics.counter(
    "repro_deltalog_ops_total",
    "Weighted row ops durably appended, by sign",
    ("sign",))
_FSYNC_SECONDS = metrics.histogram(
    "repro_deltalog_fsync_seconds",
    "Wall-clock seconds per delta append's write+flush+fsync")
_REPLAYED = metrics.counter(
    "repro_deltalog_replayed_batches_total",
    "Delta batches read back during log replay")
_TRUNCATIONS = metrics.counter(
    "repro_deltalog_truncations_total",
    "Torn delta-log tails truncated on reopen")
_ERRORS = metrics.counter(
    "repro_deltalog_errors_total",
    "Delta-log appends that failed (I/O or injected fault)")

#: where a service's per-dataset logs live under ``--journal-dir``
DELTALOG_DIRNAME = "deltalog"


class DeltaLogError(ReproError):
    """An unusable delta log or an append/replay that failed."""


class DeltaRecord(NamedTuple):
    """One replayed log entry."""

    lsn: int
    batch: DeltaBatch
    fp_before: Optional[str]
    fp_after: Optional[str]


def delta_log_path(directory: Union[str, Path],
                   root_fingerprint: str) -> Path:
    """The log file for one dataset under a journal directory."""
    return Path(directory) / DELTALOG_DIRNAME / f"{root_fingerprint}.log"


def read_delta_log(path: Union[str, Path]) -> List[DeltaRecord]:
    """Replay the clean prefix of one delta log (read-only).

    A missing file is an empty history.  Records that do not parse as
    delta batches end the trusted prefix, same as a torn line would.
    Raises :class:`DeltaLogError` only from the armed
    ``deltalog.replay`` fault site — corruption is never an exception,
    it is a shorter history.
    """
    faults.maybe_raise("deltalog.replay",
                       f"delta-log replay failed for {path}",
                       exc_type=DeltaLogError)
    out: List[DeltaRecord] = []
    with trace.span("deltalog.replay", path=str(path)):
        for record in read_records(path):
            if record.get("type") != "delta":
                break
            try:
                batch = DeltaBatch.from_dict(record)
            except ReproError:
                break
            out.append(DeltaRecord(
                lsn=record["lsn"], batch=batch,
                fp_before=record.get("fp_before"),
                fp_after=record.get("fp_after")))
    _REPLAYED.inc(len(out))
    return out


class DeltaLog:
    """Appender handle over one dataset's delta WAL.

    Opening scans the existing file, trusts the clean prefix, and
    truncates any torn tail so the LSN sequence continues exactly
    where the last durable record stopped.  Appends are serialised by
    a lock and fsync'd one record at a time.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise DeltaLogError(
                f"cannot create delta-log directory "
                f"{self.path.parent}: {error}") from error
        records = read_records(self.path)
        self._lsn = records[-1]["lsn"] if records else 0
        trusted = trusted_length(records)
        self._handle = open(self.path, "ab", buffering=0)
        if self._handle.tell() > trusted:
            self._handle.truncate(trusted)
            self._handle.seek(trusted)
            _TRUNCATIONS.inc()
        self._lock = threading.Lock()
        self._closed = False

    @property
    def last_lsn(self) -> int:
        return self._lsn

    def append(self, batch: DeltaBatch,
               fp_before: Optional[str] = None,
               fp_after: Optional[str] = None) -> int:
        """Durably append one batch; returns its LSN.

        The fault site fires *before* anything is written, so an
        injected failure leaves the log exactly at its previous LSN —
        the job fails, nothing replays.
        """
        payload: Dict[str, object] = {"type": "delta", **batch.to_dict()}
        if fp_before is not None:
            payload["fp_before"] = fp_before
        if fp_after is not None:
            payload["fp_after"] = fp_after
        with self._lock:
            if self._closed:
                raise DeltaLogError(
                    f"delta log {self.path} is closed")
            try:
                faults.maybe_raise(
                    "deltalog.append",
                    f"delta append failed for {self.path}",
                    exc_type=DeltaLogError)
                encoded = encode_record(self._lsn + 1, payload)
            except (TypeError, ValueError) as error:
                _ERRORS.inc()
                raise DeltaLogError(
                    f"delta batch is not JSON-serializable: "
                    f"{error}") from error
            except DeltaLogError:
                _ERRORS.inc()
                raise
            started = time.perf_counter()
            with trace.span("deltalog.append", lsn=self._lsn + 1,
                            ops=len(batch)):
                try:
                    append_record(self._handle, encoded)
                except OSError as error:
                    _ERRORS.inc()
                    raise DeltaLogError(
                        f"delta append failed: {error}") from error
            self._lsn += 1
            _FSYNC_SECONDS.observe(time.perf_counter() - started)
            _APPENDS.inc()
            _APPEND_OPS.inc(batch.n_inserts, sign="insert")
            _APPEND_OPS.inc(batch.n_deletes, sign="delete")
            return self._lsn

    def records(self) -> List[DeltaRecord]:
        """Replay this log's current clean prefix (for verification)."""
        return read_delta_log(self.path)

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

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "DELTALOG_DIRNAME",
    "DeltaLog",
    "DeltaLogError",
    "DeltaRecord",
    "delta_log_path",
    "read_delta_log",
]
