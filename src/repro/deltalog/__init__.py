"""Z-set deltas and the durable, replayable delta WAL.

* :mod:`repro.deltalog.model` — weighted ``(+1 | -1, row)`` batches
  (:class:`DeltaBatch`) with deterministic application semantics, the
  pure one-batch :meth:`DeltaBatch.fold` (a :class:`DeltaFold`), and
  :func:`replay_relation` for folding a logged history in one pass;
* :mod:`repro.deltalog.log` — the per-dataset append-only
  :class:`DeltaLog` (LSN-prefixed, CRC-checked, fsync'd; torn tails
  truncated on reopen);
* :mod:`repro.deltalog.records` — the line-level record primitives
  shared with the job journal.
"""

from repro.deltalog.log import (
    DELTALOG_DIRNAME,
    DeltaLog,
    DeltaLogError,
    DeltaRecord,
    delta_log_path,
    read_delta_log,
)
from repro.deltalog.model import (
    DeltaBatch,
    DeltaFold,
    DeltaOp,
    replay_relation,
)
from repro.deltalog.records import (
    encode_record,
    read_records,
    trusted_length,
)

__all__ = [
    "DELTALOG_DIRNAME",
    "DeltaBatch",
    "DeltaFold",
    "DeltaLog",
    "DeltaLogError",
    "DeltaOp",
    "DeltaRecord",
    "delta_log_path",
    "encode_record",
    "read_delta_log",
    "read_records",
    "replay_relation",
    "trusted_length",
]
