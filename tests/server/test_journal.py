"""JobJournal: record format, torn-tail tolerance, replay semantics."""

from __future__ import annotations

import json

import pytest

from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from repro.server.http import ODService
from repro.server.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    JournalError,
    read_records,
)
from tests.conftest import FullDisk

COLUMNS = ["c0", "c1", "c2"]
ROWS = [(1, 10, 5), (2, 20, 5), (3, 30, 6)]


def write_ledger(directory, *events):
    journal = JobJournal(directory)
    for method, args in events:
        getattr(journal, method)(*args)
    journal.close()
    return journal.path


class TestRecordFormat:
    def test_round_trip_in_lsn_order(self, tmp_path):
        path = write_ledger(
            tmp_path,
            ("job_submitted", ("job-1", "discover", "fp", {"x": 1})),
            ("job_started", ("job-1",)),
            ("job_finished", ("job-1", "done")))
        records = read_records(path)
        assert [r["lsn"] for r in records] == [1, 2, 3]
        assert [r["type"] for r in records] == ["submitted", "started",
                                                "finished"]
        assert records[0]["params"] == {"x": 1}
        assert records[2]["status"] == "done"

    def test_missing_file_is_empty_log(self, tmp_path):
        assert read_records(tmp_path / "nope.log") == []

    def test_torn_tail_yields_clean_prefix(self, tmp_path):
        path = write_ledger(
            tmp_path,
            ("job_submitted", ("job-1", "discover", "fp", {})),
            ("job_started", ("job-1",)))
        with path.open("ab") as handle:
            handle.write(b'3 deadbeef {"type": "fini')   # no newline
        assert [r["lsn"] for r in read_records(path)] == [1, 2]

    def test_corrupt_crc_ends_the_prefix(self, tmp_path):
        path = write_ledger(
            tmp_path,
            ("job_submitted", ("job-1", "discover", "fp", {})),
            ("job_started", ("job-1",)),
            ("job_finished", ("job-1", "done")))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"started"', b'"statted"')
        path.write_bytes(b"".join(lines))
        # record 2's CRC no longer matches: records 2 AND 3 distrusted
        assert [r["lsn"] for r in read_records(path)] == [1]

    def test_out_of_sequence_lsn_ends_the_prefix(self, tmp_path):
        path = write_ledger(
            tmp_path,
            ("job_submitted", ("job-1", "discover", "fp", {})))
        first = path.read_bytes()
        path.write_bytes(first + first.replace(b"1 ", b"5 ", 1))
        assert [r["lsn"] for r in read_records(path)] == [1]

    def test_unjournalable_params_dropped_not_fatal(self, tmp_path):
        path = write_ledger(
            tmp_path,
            ("job_submitted", ("job-1", "discover", "fp",
                               {"ok": 1, "bad": object()})))
        assert read_records(path)[0]["params"] == {"ok": 1}


class TestReopen:
    def test_lsn_continues_across_processes(self, tmp_path):
        write_ledger(tmp_path,
                     ("job_submitted", ("job-1", "discover", "fp", {})))
        journal = JobJournal(tmp_path)
        journal.job_started("job-1")
        journal.close()
        assert [r["lsn"] for r in read_records(
            tmp_path / JOURNAL_FILENAME)] == [1, 2]

    def test_reopen_truncates_a_torn_tail(self, tmp_path):
        path = write_ledger(
            tmp_path,
            ("job_submitted", ("job-1", "discover", "fp", {})))
        with path.open("ab") as handle:
            handle.write(b"2 0000 {gar")
        journal = JobJournal(tmp_path)
        journal.job_started("job-1")
        journal.close()
        records = read_records(path)
        assert [r["lsn"] for r in records] == [1, 2]
        assert records[1]["type"] == "started"

    def test_unusable_directory_raises(self, tmp_path):
        blocker = tmp_path / "flat"
        blocker.write_text("not a directory", encoding="utf-8")
        with pytest.raises(JournalError, match="journal directory"):
            JobJournal(blocker)


class TestFailedAppend:
    @pytest.mark.parametrize("torn", [0, 7],
                             ids=["nothing-written", "torn-record"])
    def test_failed_append_leaves_no_gap(self, tmp_path, torn):
        """An append that fails takes no LSN and leaves no bytes, so
        replay keeps every record written after it."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-1", "discover", "fp", {})
        journal._handle = FullDisk(journal._handle, torn)
        with pytest.raises(JournalError, match="No space left"):
            journal.job_started("job-1")
        journal.job_finished("job-1", "done")
        journal.job_submitted("job-2", "discover", "fp", {})
        journal.close()
        with JobJournal(tmp_path) as reopened:
            state = reopened.recover()
        assert state.last_lsn == 3
        assert state.finished_jobs == 1
        assert [job["id"] for job in state.pending_jobs] == ["job-2"]
        assert state.crashed_jobs == []


class TestRecover:
    def test_job_phases_classified(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-1", "discover", "fp", {})
        journal.job_started("job-1")
        journal.job_finished("job-1", "done")
        journal.job_submitted("job-2", "append", "fp", {"rows": [[1]]})
        journal.job_started("job-2")          # crashed mid-run
        journal.job_submitted("job-3", "discover", "fp", {})
        journal.close()

        state = JobJournal(tmp_path).recover()
        assert state.finished_jobs == 1
        assert [j["id"] for j in state.crashed_jobs] == ["job-2"]
        assert [j["id"] for j in state.pending_jobs] == ["job-3"]
        assert state.crashed_jobs[0]["params"] == {"rows": [[1]]}
        assert state.max_job_id == 3
        assert state.last_lsn == 6

    def test_dataset_spool_round_trip(self, tmp_path):
        source = {"columns": COLUMNS,
                  "rows": [list(r) for r in ROWS], "name": "t"}
        journal = JobJournal(tmp_path)
        journal.dataset_registered("fp-1", "t", source)
        journal.close()

        reopened = JobJournal(tmp_path)
        state = reopened.recover()
        assert state.datasets["fp-1"]["name"] == "t"
        assert reopened.read_source("fp-1") == source
        reopened.close()

    def test_missing_spool_surfaces_as_none(self, tmp_path):
        write_ledger(tmp_path, ("dataset_registered",
                                ("fp-1", "t", None)))
        journal = JobJournal(tmp_path)
        state = journal.recover()
        journal.close()
        assert state.datasets["fp-1"]["source"] is None
        assert journal.read_source("fp-1") is None

    def test_corrupt_spool_surfaces_as_none(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.dataset_registered(
            "fp-1", "t", {"columns": COLUMNS, "rows": []})
        journal.dataset_spool("fp-1").write_text("[1, 2",
                                                 encoding="utf-8")
        assert journal.read_source("fp-1") is None
        journal.close()

    def test_recover_reads_the_open_time_prefix(self, tmp_path):
        """Appends after open are durable but recover() reports the
        prefix found at open — replay runs before the service acts."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-1", "discover", "fp", {})
        assert journal.recover().pending_jobs == []
        journal.close()
        reopened = JobJournal(tmp_path)
        assert [j["id"] for j in reopened.recover().pending_jobs] \
            == ["job-1"]
        reopened.close()


class TestServiceReplay:
    """In-process end-to-end: a second ODService on the same journal
    directory restores what the first one registered and owed."""

    def test_datasets_and_ledger_survive_restart(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        relation = Relation.from_rows(COLUMNS, ROWS)
        fp = fingerprint(relation)
        body = {"columns": COLUMNS,
                "rows": [list(r) for r in ROWS], "name": "t"}
        with ODService(port=0, journal_dir=journal_dir) as first:
            status, payload = first.register(body)
            assert payload["fingerprint"] == fp
            job = first.scheduler.submit("discover", fp)
            assert first.scheduler.wait(job.id, timeout=60.0).finished

        with ODService(port=0, journal_dir=journal_dir) as second:
            assert second.recovered == {"datasets": 1, "requeued": 0,
                                        "crashed": 0,
                                        "delta_batches": 0,
                                        "delta_errors": 0}
            assert second.catalog.get(fp).fingerprint == fp
            # finished jobs are ledger history, not restored records
            assert second.scheduler.jobs() == []
            # ids never collide with the journaled ones
            fresh = second.scheduler.submit("discover", fp)
            assert int(fresh.id.rsplit("-", 1)[-1]) > int(
                job.id.rsplit("-", 1)[-1])
            assert second.scheduler.wait(fresh.id,
                                         timeout=60.0).status == "done"

    def test_started_job_comes_back_crashed(self, tmp_path):
        journal_dir = tmp_path / "journal"
        relation = Relation.from_rows(COLUMNS, ROWS)
        fp = fingerprint(relation)
        journal = JobJournal(journal_dir)
        journal.dataset_registered(
            fp, "t", {"columns": COLUMNS,
                      "rows": [list(r) for r in ROWS], "name": "t"})
        journal.job_submitted("job-1", "discover", fp, {})
        journal.job_started("job-1")
        journal.close()

        with ODService(port=0, journal_dir=str(journal_dir)) as svc:
            assert svc.recovered["crashed"] == 1
            job = svc.scheduler.job("job-1")
            assert job.status == "crashed"
            assert job.finished
            assert "crash" in job.error
            # the crash verdict itself was journaled, so the NEXT
            # restart replays it as plain history
            health = svc.health()
            assert health["recovered"]["crashed"] == 1
        records = read_records(journal_dir / JOURNAL_FILENAME)
        assert records[-1] == {"type": "finished", "id": "job-1",
                               "status": "crashed",
                               "lsn": records[-1]["lsn"]}

    def test_lost_spool_skips_the_dataset(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)
        journal.dataset_registered("fp-gone", "t", None)
        journal.close()
        with ODService(port=0, journal_dir=str(journal_dir)) as svc:
            assert svc.recovered["datasets"] == 0

    def test_register_spools_the_exact_body(self, tmp_path):
        journal_dir = tmp_path / "journal"
        body = {"columns": COLUMNS,
                "rows": [list(r) for r in ROWS], "name": "t"}
        with ODService(port=0, journal_dir=str(journal_dir)) as svc:
            svc.register(dict(body))
            fp = fingerprint(Relation.from_rows(COLUMNS, ROWS))
            spooled = json.loads(
                svc.journal.dataset_spool(fp).read_text(
                    encoding="utf-8"))
        assert spooled == body
