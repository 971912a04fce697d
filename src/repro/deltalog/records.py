"""The WAL record primitives every durable log in the tree shares.

One record per line::

    <lsn> <crc32:08x> <canonical json>\n

The CRC covers the JSON payload bytes, the LSN is a strictly
increasing sequence number starting at 1.  Reading accepts any *clean
prefix*: the first torn, corrupt, or out-of-sequence line ends the
useful log (everything before it is trusted, everything after is
ignored) — exactly the contract a crashed appender can guarantee,
since a record is written with one ``write`` + ``fsync`` and only the
final line can ever be torn.

Both durable logs — the job journal (:mod:`repro.server.journal`) and
the per-dataset delta WAL (:mod:`repro.deltalog.log`) — are built on
these functions, so the torn-write fuzz tests exercise one record
discipline, not two diverging copies.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, List, Union


def encode_record(lsn: int, payload: Dict) -> bytes:
    """One canonical log line for ``payload`` at sequence ``lsn``."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%d %08x %s\n" % (lsn, crc, body)


def append_record(handle: BinaryIO, record: bytes) -> None:
    """Write one encoded record through ``handle`` and fsync it.

    ``handle`` is unbuffered (``open(path, "ab", buffering=0)``), so a
    failed write leaves no bytes waiting in a buffer for the next
    flush.  An append that fails leaves no bytes in the file either:
    it is cut back to where the record began before the ``OSError``
    propagates, so the next record, which takes the same LSN, starts a
    clean line.
    """
    start = handle.tell()
    try:
        written = handle.write(record)
        if written != len(record):
            raise OSError(f"short write: {written} of {len(record)} "
                          f"bytes")
        os.fsync(handle.fileno())
    except OSError:
        try:
            handle.truncate(start)
        except OSError:
            pass            # the stray bytes end the trusted prefix
        raise


def read_records(path: Union[str, Path]) -> List[Dict]:
    """Every trusted record in ``path``, in LSN order.

    Stops at the first torn/corrupt/out-of-sequence line — the clean
    prefix is the log's truth.  A missing file is an empty log.  Each
    returned payload carries its ``lsn``.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: List[Dict] = []
    expected_lsn = 1
    with path.open("rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break                       # torn tail (crashed writer)
            parts = raw.rstrip(b"\n").split(b" ", 2)
            if len(parts) != 3:
                break
            try:
                lsn = int(parts[0])
                crc = int(parts[1], 16)
            except ValueError:
                break
            if lsn != expected_lsn:
                break
            if zlib.crc32(parts[2]) & 0xFFFFFFFF != crc:
                break
            try:
                payload = json.loads(parts[2].decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                break
            if not isinstance(payload, dict):
                break
            payload["lsn"] = lsn
            records.append(payload)
            expected_lsn += 1
    return records


def trusted_length(records: List[Dict]) -> int:
    """Byte length of the clean prefix ``records`` came from — what a
    reopening appender truncates the file to before writing."""
    return sum(len(encode_record(record["lsn"],
                                 {k: v for k, v in record.items()
                                  if k != "lsn"}))
               for record in records)


__all__ = ["append_record", "encode_record", "read_records",
           "trusted_length"]
