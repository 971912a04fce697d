"""DeltaLog durability: LSN continuity, replay, reopen semantics."""

from __future__ import annotations

import pytest

from repro.deltalog import (
    DeltaBatch,
    DeltaLog,
    DeltaLogError,
    delta_log_path,
    read_delta_log,
)
from repro.deltalog.records import encode_record
from tests.conftest import FullDisk


def batch(n):
    return DeltaBatch.inserts([(n, n)])


class TestAppendReplay:
    def test_lsns_start_at_one_and_increase(self, tmp_path):
        with DeltaLog(tmp_path / "d.log") as log:
            assert log.append(batch(1)) == 1
            assert log.append(batch(2)) == 2
            assert log.last_lsn == 2

    def test_records_round_trip_with_fingerprints(self, tmp_path):
        path = tmp_path / "d.log"
        with DeltaLog(path) as log:
            log.append(DeltaBatch([(1, (1, 2)), (-1, (3, 4))]),
                       fp_before="aa", fp_after="bb")
        (record,) = read_delta_log(path)
        assert record.lsn == 1
        assert record.batch.ops == [(1, (1, 2)), (-1, (3, 4))]
        assert record.fp_before == "aa"
        assert record.fp_after == "bb"

    def test_missing_file_is_empty_history(self, tmp_path):
        assert read_delta_log(tmp_path / "never.log") == []

    def test_reopen_continues_the_lsn_sequence(self, tmp_path):
        path = tmp_path / "d.log"
        with DeltaLog(path) as log:
            log.append(batch(1))
        with DeltaLog(path) as log:
            assert log.last_lsn == 1
            assert log.append(batch(2)) == 2
        assert [r.lsn for r in read_delta_log(path)] == [1, 2]

    def test_closed_log_refuses_appends(self, tmp_path):
        log = DeltaLog(tmp_path / "d.log")
        log.close()
        with pytest.raises(DeltaLogError):
            log.append(batch(1))

    def test_unserializable_batch_fails_cleanly(self, tmp_path):
        with DeltaLog(tmp_path / "d.log") as log:
            bad = DeltaBatch([(1, (object(),))])
            with pytest.raises(DeltaLogError):
                log.append(bad)
            # the failed append consumed no LSN
            assert log.last_lsn == 0
            assert log.append(batch(1)) == 1

    def test_records_method_matches_reader(self, tmp_path):
        with DeltaLog(tmp_path / "d.log") as log:
            log.append(batch(1))
            log.append(batch(2))
            assert [r.lsn for r in log.records()] == [1, 2]


class TestFailedAppend:
    def test_torn_failed_append_leaves_the_log_clean(self, tmp_path):
        """A write that puts part of a record on disk and then fails
        leaves no bytes behind: the next append takes the LSN and
        replays."""
        log = DeltaLog(tmp_path / "d.log")
        log.append(batch(1))
        log._handle = FullDisk(log._handle, 7)
        with pytest.raises(DeltaLogError, match="No space left"):
            log.append(batch(2))
        assert log.append(batch(3)) == 2
        log.close()
        assert [r.lsn for r in read_delta_log(tmp_path / "d.log")] == \
            [1, 2]


class TestTrustBoundary:
    def test_non_delta_record_ends_the_prefix(self, tmp_path):
        path = tmp_path / "d.log"
        with DeltaLog(path) as log:
            log.append(batch(1))
        with open(path, "ab") as handle:
            handle.write(encode_record(2, {"type": "mystery"}))
            handle.write(encode_record(
                3, {"type": "delta", "ops": [[1, [9, 9]]]}))
        # the foreign record ends trust; the valid delta after it is
        # NOT replayed (same rule as a torn line)
        assert [r.lsn for r in read_delta_log(path)] == [1]

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "d.log"
        with DeltaLog(path) as log:
            log.append(batch(1))
            log.append(batch(2))
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])            # tear the last record
        with DeltaLog(path) as log:
            assert log.last_lsn == 1
            assert log.append(batch(3)) == 2    # reuses the torn slot
        assert [r.lsn for r in read_delta_log(path)] == [1, 2]

    def test_path_helper_shape(self, tmp_path):
        path = delta_log_path(tmp_path, "abc123")
        assert path == tmp_path / "deltalog" / "abc123.log"
