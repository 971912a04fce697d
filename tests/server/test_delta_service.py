"""The delta job through the full service stack: WAL-first appends,
catalog re-keying, stale-result invalidation, and boot-time replay.
"""

from __future__ import annotations

import importlib
from collections import Counter

import pytest

import repro.server.catalog as catalog_module
import repro.server.jobs as jobs_module
from repro.core.fastod import FastOD, FastODConfig
from repro.deltalog import DeltaBatch, delta_log_path, read_delta_log
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from repro.server.catalog import DatasetCatalog
from repro.server.client import ServiceClient, ServiceClientError
from repro.server.http import ODService
from repro.server.jobs import JobError, JobScheduler
from repro.server.journal import JobJournal
from repro.server.store import ResultStore

COLUMNS = ["a", "b", "c"]
ROWS = [[1, 10, 5], [2, 20, 5], [3, 30, 6], [4, 40, 6]]


def service(tmp_path, **kwargs):
    kwargs.setdefault("journal_dir", str(tmp_path / "journal"))
    kwargs.setdefault("store_dir", str(tmp_path / "store"))
    return ODService(port=0, workers=1, **kwargs)


def register(svc) -> str:
    status, entry = svc.register(
        {"columns": COLUMNS, "rows": ROWS, "name": "t"})
    assert status == 201
    return entry["fingerprint"]


class TestDeltaJob:
    def test_delta_rekeys_and_logs(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            job = svc.delta(fp, {"deletes": [[1, 10, 5]],
                                 "inserts": [[5, 50, 7]]})
            assert job["status"] == "done"
            assert job["lsn"] == 1
            assert job["report"]["n_deleted"] == 1
            assert job["report"]["n_appended"] == 1
            new_fp = job["fingerprint"]
            assert new_fp != fp
            entry = svc.catalog.get(fp)        # forwards resolve
            assert entry.fingerprint == new_fp
            assert entry.root_fingerprint == fp
            assert entry.delta_lsn == 1
            # the WAL has the batch, keyed by the ROOT fingerprint
            records = read_delta_log(delta_log_path(
                tmp_path / "journal", fp))
            assert len(records) == 1
            assert records[0].fp_before == fp
            assert records[0].fp_after == new_fp

    def test_delta_result_matches_direct_run(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            job = svc.delta(fp, {
                "updates": [[[2, 20, 5], [2, 21, 5]]]})
            mutated = Relation.from_rows(
                COLUMNS, [tuple(r) for r in ROWS if r[0] != 2]
                + [(2, 21, 5)])
            direct = FastOD(mutated, FastODConfig()).run().to_dict()
            assert job["result"]["fds"] == direct["fds"]
            assert job["result"]["ocds"] == direct["ocds"]
            assert job["fingerprint"] == fingerprint(mutated)

    def test_stale_results_invalidated_on_rekey(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            assert svc.submit({"kind": "discover", "fingerprint": fp,
                               "wait": True})["status"] == "done"
            config = FastODConfig()
            assert svc.store.get(fp, config) is not None
            disk = (tmp_path / "store" / fp)
            assert disk.is_dir() and list(disk.glob("*.json"))
            new_fp = svc.delta(fp, {"inserts": [[9, 90, 9]]})[
                "fingerprint"]
            # resident AND on-disk copies under the retired key gone
            assert svc.store.get(fp, config) is None
            assert not list(disk.glob("*.json"))
            assert svc.store.get(new_fp, config) is not None

    def test_rejects_empty_making_delta(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            job = svc.delta(fp, {"deletes": ROWS})
            assert job["status"] == "failed"
            assert "empty" in job["error"]
            # nothing was logged for the rejected batch
            assert read_delta_log(delta_log_path(
                tmp_path / "journal", fp)) == []
            assert svc.catalog.get(fp).fingerprint == fp

    def test_rejects_malformed_delta_at_submit(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            with pytest.raises(JobError):
                svc.delta(fp, {})
            with pytest.raises(JobError):
                svc.delta(fp, {"ops": [[2, [1, 2, 3]]]})
            with pytest.raises(JobError):
                svc.delta(fp, {"inserts": [[1, 2]]})   # arity

    def test_absent_row_delete_fails_the_job(self, tmp_path):
        """A delta that cannot resolve is a typed refusal: the job
        fails with one ``DataError: ...`` line (no traceback, no
        server paths), the blocking request answers 400 with that line
        and the job id, and the WAL stays untouched."""
        import json
        import urllib.error
        import urllib.request

        with service(tmp_path) as svc:
            fp = register(svc)
            job = svc.delta(fp, {"deletes": [[9, 9, 9]]})
            assert job["status"] == "failed"
            assert job["error"].startswith("DataError: ")
            assert "\n" not in job["error"]
            assert "Traceback" not in job["error"]
            assert ".py" not in job["error"]
            request = urllib.request.Request(
                f"{svc.url}/datasets/{fp}/delta",
                data=json.dumps({"deletes": [[9, 9, 9]]}).encode(),
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            assert caught.value.code == 400
            body = json.loads(caught.value.read().decode())
            assert set(body) == {"error", "job"}
            assert body["error"].startswith("DataError: ")
            assert svc.scheduler.job(body["job"]).status == "failed"
            with pytest.raises(ServiceClientError) as refused:
                ServiceClient(svc.url).delta(fp, deletes=[[9, 9, 9]])
            assert refused.value.status == 400
            assert read_delta_log(delta_log_path(
                tmp_path / "journal", fp)) == []
            assert svc.catalog.get(fp).fingerprint == fp

    def test_number_delete_does_not_match_a_bool_row(self, tmp_path):
        with service(tmp_path) as svc:
            status, entry = svc.register({
                "columns": ["a", "b"], "name": "bools",
                "rows": [[True, 1], [2, 2], [3, 3]]})
            assert status == 201
            fp = entry["fingerprint"]
            job = svc.delta(fp, {"deletes": [[1, 1]]})
            assert job["status"] == "failed"
            assert "no remaining occurrence" in job["error"]
            assert read_delta_log(delta_log_path(
                tmp_path / "journal", fp)) == []
            assert svc.catalog.get(fp).fingerprint == fp
            assert svc.catalog.get(fp).relation.n_rows == 3


class TestSubmissionEdge:
    """Bad rows fail the request with HTTP 400; no job is created."""

    @pytest.fixture
    def running(self, tmp_path):
        with service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            fp = client.register_rows(COLUMNS, ROWS)["fingerprint"]
            yield svc, client, fp

    def assert_rejected(self, svc, call) -> None:
        with pytest.raises(ServiceClientError) as caught:
            call()
        assert caught.value.status == 400
        assert svc.scheduler.jobs() == []

    def test_wrong_arity_append_is_400(self, running):
        svc, client, fp = running
        self.assert_rejected(svc, lambda: client.append(fp, [[1, 2]]))

    def test_nan_append_is_400(self, running):
        svc, client, fp = running
        self.assert_rejected(
            svc, lambda: client.append(fp, [[1, float("nan"), 5]]))

    def test_nan_delta_is_400(self, running):
        svc, client, fp = running
        self.assert_rejected(svc, lambda: client.delta(
            fp, inserts=[[float("nan"), 1, 5]]))

    def test_nan_registration_is_400(self, running):
        _, client, _ = running
        with pytest.raises(ServiceClientError) as caught:
            client.register_rows(COLUMNS, [[1, float("nan"), 5]])
        assert caught.value.status == 400

    def test_infinities_register_and_mutate(self, running):
        _, client, _ = running
        fp = client.register_rows(
            COLUMNS, [[1, float("-inf"), 5], [2, 0, 5]])["fingerprint"]
        job = client.delta(fp, inserts=[[3, float("inf"), 6]])
        assert job["status"] == "done", job.get("error")
        # ±inf bound the finite values: a and b still ascend together
        assert "{}: a ~ b" not in job["report"]["invalidated"]
        direct = FastOD(Relation.from_rows(COLUMNS, [
            (1, float("-inf"), 5), (2, 0, 5), (3, float("inf"), 6)]))
        assert job["result"]["ocds"] == direct.run().to_dict()["ocds"]


class TestRecovery:
    def test_restart_replays_warm_state(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            first = svc.delta(fp, {
                "deletes": [[1, 10, 5]],
                "updates": [[[2, 20, 5], [2, 22, 5]]]})
            second = svc.delta(first["fingerprint"],
                               {"inserts": [[6, 60, 8]]})
            live_fp = second["fingerprint"]
            fds = second["result"]["fds"]

        with service(tmp_path) as svc:
            assert svc.recovered["datasets"] == 1
            assert svc.recovered["delta_batches"] == 2
            assert svc.recovered["delta_errors"] == 0
            entry = svc.catalog.get(fp)         # root fp forwards
            assert entry.fingerprint == live_fp
            assert entry.delta_lsn == 2
            assert entry.root_fingerprint == fp
            # intermediate fingerprint forwards too
            assert svc.catalog.get(
                first["fingerprint"]).fingerprint == live_fp
            # replayed content answers discovery identically
            job = svc.submit({"kind": "discover",
                              "fingerprint": live_fp, "wait": True})
            assert job["result"]["fds"] == fds
            # and the stream resumes at the next LSN
            resumed = svc.delta(live_fp, {"inserts": [[7, 70, 9]]})
            assert resumed["status"] == "done"
            assert resumed["lsn"] == 3

    def test_fp_mismatch_skips_the_dataset(self, tmp_path):
        with service(tmp_path) as svc:
            fp = register(svc)
            svc.delta(fp, {"inserts": [[5, 50, 7]]})
        # corrupt the replay source: change the WAL's recorded
        # fp_after so the replayed content cannot authenticate
        path = delta_log_path(tmp_path / "journal", fp)
        text = path.read_text(encoding="utf-8")
        assert "fp_after" in text
        import json as _json
        lsn, crc, payload = text.strip().split(" ", 2)
        record = _json.loads(payload)
        record["fp_after"] = "0" * 64
        import zlib
        body = _json.dumps(record, sort_keys=True,
                           separators=(",", ":"))
        crc = f"{zlib.crc32(body.encode('utf-8')) & 0xffffffff:08x}"
        path.write_text(f"{lsn} {crc} {body}\n", encoding="utf-8")
        with service(tmp_path) as svc:
            assert svc.recovered["delta_errors"] == 1
            assert svc.recovered["datasets"] == 0
            assert fp not in svc.catalog

    def test_pending_append_in_a_journal_replays(self, tmp_path):
        """A journaled append that never started carries its raw
        'rows'; a restart re-queues and applies it."""
        relation = Relation.from_rows(COLUMNS, [tuple(r) for r in ROWS])
        fp = fingerprint(relation)
        with JobJournal(tmp_path / "journal") as journal:
            journal.dataset_registered(
                fp, "t", {"columns": COLUMNS, "rows": ROWS})
            journal.job_submitted("job-1", "append", fp,
                                  {"rows": [[5, 50, 7]]})
        with service(tmp_path) as svc:
            assert svc.recovered["requeued"] == 1
            job = svc.scheduler.wait("job-1", timeout=30.0)
            assert job.status == "done", job.error
            assert job.payload["lsn"] == 1
            assert svc.catalog.get(fp).relation.n_rows == 5

    def test_no_journal_means_no_lsn(self, tmp_path):
        with ODService(port=0, workers=1) as svc:
            fp = register(svc)
            job = svc.delta(fp, {"inserts": [[5, 50, 7]]})
            assert job["status"] == "done"
            assert "lsn" not in job


class TestOneFoldPerJob:
    def test_mixed_delta_resolves_folds_and_hashes_once(
            self, tmp_path, monkeypatch):
        """One mixed delete+insert job: one resolve, one post-delete
        selection (a ``drop_rows``; no ``select_rows`` gather), one
        append, one fingerprint — the WAL record, the engine and the
        catalog all share that fold."""
        catalog = DatasetCatalog()
        entry = catalog.register(
            Relation.from_rows(COLUMNS, [tuple(r) for r in ROWS]))
        catalog.ensure_incremental(entry.fingerprint, FastODConfig())
        calls = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(DeltaBatch, "split", "resolve")
        count(Relation, "select_rows", "select_rows")
        count(Relation, "drop_rows", "drop_rows")
        count(Relation, "append_rows", "append_rows")
        for module in (importlib.import_module("repro.relation.fingerprint"),
                       jobs_module, catalog_module):
            count(module, "fingerprint", "fingerprint")
        with JobScheduler(catalog, ResultStore(), workers=1,
                          delta_dir=tmp_path) as scheduler:
            job = scheduler.submit("delta", entry.fingerprint, {
                "deletes": [[2, 20, 5]], "inserts": [[5, 50, 7]]})
            job.wait(30.0)
        assert job.status == "done", job.error
        assert calls == {"resolve": 1, "drop_rows": 1,
                         "append_rows": 1, "fingerprint": 1}
        monkeypatch.undo()
        engine = entry.incremental
        assert job.payload["fingerprint"] == fingerprint(engine.relation)
        assert entry.relation is engine.relation
        record, = read_delta_log(delta_log_path(
            tmp_path, entry.root_fingerprint))
        assert record.fp_after == job.payload["fingerprint"]
        catalog.close()


class TestSchedulerDirect:
    def test_append_rides_the_delta_runner(self, tmp_path):
        catalog = DatasetCatalog()
        store = ResultStore()
        entry = catalog.register(
            Relation.from_rows(COLUMNS, [tuple(r) for r in ROWS]))
        with JobScheduler(catalog, store, workers=1,
                          delta_dir=tmp_path) as scheduler:
            job = scheduler.submit("append", entry.fingerprint,
                                   {"rows": [[5, 50, 7]]})
            job.wait(30.0)
            assert job.status == "done"
            assert job.payload["lsn"] == 1
            # pure-insert deltas land in the same per-dataset WAL
            records = read_delta_log(delta_log_path(
                tmp_path, entry.root_fingerprint))
            assert records[0].batch.ops == [(1, (5, 50, 7))]
        catalog.close()
