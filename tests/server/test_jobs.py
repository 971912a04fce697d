"""JobScheduler: lifecycle, caching, cancellation, telemetry."""

from __future__ import annotations

import pytest

from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.server.catalog import DatasetCatalog
from repro.server.jobs import (
    CACHED_EXECUTOR_STATS,
    JobError,
    JobScheduler,
    config_from_params,
)
from repro.server.store import ResultStore
from tests.conftest import make_relation


@pytest.fixture
def scheduler():
    catalog = DatasetCatalog()
    store = ResultStore()
    sched = JobScheduler(catalog, store, workers=1)
    yield sched
    sched.close()


def register(scheduler, relation):
    return scheduler._catalog.register(relation).fingerprint


def small():
    return make_relation(3, [(1, 10, 5), (2, 20, 5), (3, 30, 5),
                             (3, 30, 5)])


class TestConfigFromParams:
    def test_none_is_default(self):
        assert config_from_params(None) == FastODConfig()

    def test_fields_pass_through(self):
        config = config_from_params({"max_level": 2, "workers": 3})
        assert config.max_level == 2 and config.workers == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError):
            config_from_params({"max_levle": 2})

    def test_timeout_not_a_config_field(self):
        # timeout is a job parameter, never part of the store key
        with pytest.raises(JobError):
            config_from_params({"timeout_seconds": 1.0})

    @pytest.mark.parametrize("params", [
        {"minimality_pruning": "no"}, {"level_pruning": None},
        {"max_level": "x"}, {"max_level": -1}, {"workers": "two"},
        {"workers": True}, {"parallel_min_grouped_rows": 1.5},
        {"kernel_backend": "gpu"}])
    def test_values_of_the_wrong_type_rejected(self, params):
        with pytest.raises(JobError, match="must be"):
            config_from_params(params)

    def test_config_must_be_an_object(self):
        with pytest.raises(JobError, match="must be an object"):
            config_from_params(5)


class TestTimeouts:
    @pytest.mark.parametrize("timeout", [
        "soon", -1, float("inf"), float("nan"), True, [1]])
    def test_bad_timeout_rejected_at_submission(self, scheduler, timeout):
        fp = register(scheduler, small())
        with pytest.raises(JobError, match="'timeout'"):
            scheduler.submit("discover", fp, {"timeout": timeout})
        assert scheduler.jobs() == []

    def test_replayed_bad_timeout_fails_only_its_job(self, scheduler):
        # a journal replay re-queues params no submission checked
        fp = register(scheduler, small())
        scheduler.ensure_job_id_floor(1)
        replayed = scheduler.restore_pending({
            "id": "job-1", "kind": "discover", "fingerprint": fp,
            "params": {"timeout": "soon"}})
        assert scheduler.wait(replayed.id, timeout=10).status == "failed"
        assert "'timeout'" in replayed.error
        later = scheduler.wait(
            scheduler.submit("discover", fp).id, timeout=10)
        assert later.status == "done", later.error


class TestDiscoverJobs:
    def test_discover_matches_direct_api(self, scheduler):
        relation = small()
        fp = register(scheduler, relation)
        job = scheduler.wait(
            scheduler.submit("discover", fp).id, timeout=60)
        assert job.status == "done", job.error
        direct = FastOD(relation).run().to_dict()
        assert job.payload["result"]["fds"] == direct["fds"]
        assert job.payload["result"]["ocds"] == direct["ocds"]
        assert job.executor_stats is not None
        assert job.payload["stored"] is True

    def test_repeat_is_served_from_store_at_submit(self, scheduler):
        fp = register(scheduler, small())
        first = scheduler.wait(
            scheduler.submit("discover", fp).id, timeout=60)
        repeat = scheduler.submit("discover", fp)
        # no queue trip: terminal at submission, zero-task telemetry
        assert repeat.status == "done"
        assert repeat.cached is True
        assert repeat.executor_stats == CACHED_EXECUTOR_STATS
        assert repeat.executor_stats["phases"] == {}
        assert (repeat.payload["result"]["fds"]
                == first.payload["result"]["fds"])

    def test_distinct_config_recomputes(self, scheduler):
        fp = register(scheduler, small())
        scheduler.wait(scheduler.submit("discover", fp).id, timeout=60)
        other = scheduler.wait(
            scheduler.submit("discover", fp,
                             {"config": {"max_level": 1}}).id,
            timeout=60)
        assert other.cached is False

    def test_bad_config_fails_at_submit(self, scheduler):
        fp = register(scheduler, small())
        with pytest.raises(JobError):
            scheduler.submit("discover", fp, {"config": {"nope": 1}})
        assert scheduler.jobs() == []

    def test_unknown_kind_rejected(self, scheduler):
        fp = register(scheduler, small())
        with pytest.raises(JobError):
            scheduler.submit("mine", fp)

    def test_timeout_marks_result_and_skips_store(self, scheduler):
        relation = make_dataset("ncvoter", n_rows=2000, n_attrs=10,
                                seed=2)
        fp = register(scheduler, relation)
        job = scheduler.wait(
            scheduler.submit("discover", fp,
                             {"timeout": 1e-4}).id, timeout=120)
        assert job.status == "done"
        assert job.payload["result"]["timed_out"] is True
        assert job.payload["stored"] is False


class TestValidateAndViolations:
    def test_validate(self, scheduler):
        fp = register(scheduler, small())
        job = scheduler.wait(
            scheduler.submit("validate", fp,
                             {"dependency": "{}: [] -> c2"}).id,
            timeout=60)
        assert job.status == "done", job.error
        assert job.payload["report"]["holds"] is True
        assert job.executor_stats is not None

    def test_violations_with_witnesses(self, scheduler):
        fp = register(scheduler, make_relation(2, [(1, 2), (2, 1)]))
        job = scheduler.wait(
            scheduler.submit("violations", fp,
                             {"dependency": "[c0] ~ [c1]",
                              "witnesses": 1}).id, timeout=60)
        assert job.status == "done", job.error
        report = job.payload["report"]
        assert report["holds"] is False
        assert report["n_violating_pairs"] == 1
        assert len(report["witnesses"]) == 1

    def test_missing_dependency_fails_at_submit(self, scheduler):
        fp = register(scheduler, small())
        with pytest.raises(JobError, match="dependency"):
            scheduler.submit("validate", fp)
        assert scheduler.jobs() == []   # no stranded job record

    @pytest.mark.parametrize("kind", ["validate", "violations"])
    @pytest.mark.parametrize("dependency, message", [
        ("{nope}: [] -> c2", "unknown attribute 'nope'"),
        ("[c0] ~ [nope]", "unknown attribute 'nope'"),
        ("{c0}: [] -> ", "right side"),
    ])
    def test_bad_dependency_fails_at_submit(self, scheduler, kind,
                                            dependency, message):
        fp = register(scheduler, small())
        with pytest.raises(JobError, match=message):
            scheduler.submit(kind, fp, {"dependency": dependency})
        assert scheduler.jobs() == []

    def test_bad_witnesses_fails_at_submit(self, scheduler):
        fp = register(scheduler, small())
        with pytest.raises(JobError, match="witnesses"):
            scheduler.submit("violations", fp,
                             {"dependency": "{}: [] -> c2",
                              "witnesses": "lots"})


class TestAppendJobs:
    def test_append_rekeys_and_stores(self, scheduler):
        fp = register(scheduler, small())
        job = scheduler.wait(
            scheduler.submit("append", fp,
                             {"rows": [[9, 90, 5]]}).id, timeout=60)
        assert job.status == "done", job.error
        new_fp = job.payload["fingerprint"]
        assert new_fp != fp
        # the maintained result was stored under the grown content:
        # a discover on the new fingerprint is a pure cache hit
        repeat = scheduler.submit("discover", new_fp)
        assert repeat.cached is True
        # and it matches a from-scratch run on the grown relation
        grown = small().append_rows([(9, 90, 5)])
        direct = FastOD(grown).run().to_dict()
        assert repeat.payload["result"]["fds"] == direct["fds"]
        assert repeat.payload["result"]["ocds"] == direct["ocds"]

    def test_append_through_old_fingerprint_forwards(self, scheduler):
        fp = register(scheduler, small())
        first = scheduler.wait(
            scheduler.submit("append", fp,
                             {"rows": [[9, 90, 5]]}).id, timeout=60)
        # submitting against the retired fingerprint still lands on
        # the live entry
        second = scheduler.wait(
            scheduler.submit("append", fp,
                             {"rows": [[11, 110, 5]]}).id, timeout=60)
        assert second.status == "done", second.error
        assert (second.payload["fingerprint"]
                != first.payload["fingerprint"])

    def test_empty_rows_fail_at_submit(self, scheduler):
        fp = register(scheduler, small())
        with pytest.raises(JobError, match="rows"):
            scheduler.submit("append", fp, {"rows": []})


class TestCancellation:
    def test_cancel_running_job_stops_traversal(self, scheduler):
        # big enough that discovery runs for many seconds — the cancel
        # below lands while the traversal is in flight
        relation = make_dataset("ncvoter", n_rows=4000, n_attrs=12,
                                seed=3)
        fp = register(scheduler, relation)
        job = scheduler.submit("discover", fp)
        # wait until the runner picked it up, then revoke its budget
        deadline = 100
        while job.status == "queued" and deadline:
            deadline -= 1
            job.wait(0.05)
        assert scheduler.cancel(job.id) is True
        scheduler.wait(job.id, timeout=120)
        assert job.status == "cancelled"
        assert job.payload["result"]["timed_out"] is True

    def test_cancel_finished_job_is_noop(self, scheduler):
        fp = register(scheduler, small())
        job = scheduler.wait(
            scheduler.submit("discover", fp).id, timeout=60)
        assert scheduler.cancel(job.id) is False
        assert job.status == "done"

    def test_unknown_job_id(self, scheduler):
        with pytest.raises(JobError):
            scheduler.cancel("job-404")


class TestLifecycle:
    def test_jobs_listing_is_fifo(self, scheduler):
        fp = register(scheduler, small())
        ids = [scheduler.submit("discover", fp).id for _ in range(3)]
        assert [job.id for job in scheduler.jobs()] == ids

    def test_submit_after_close_rejected(self):
        catalog = DatasetCatalog()
        sched = JobScheduler(catalog, ResultStore(), workers=1)
        fp = catalog.register(small()).fingerprint
        sched.close()
        with pytest.raises(JobError):
            sched.submit("discover", fp)

    def test_ledger_prunes_oldest_finished_jobs(self, scheduler,
                                                monkeypatch):
        from repro.server import jobs as jobs_module

        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 3)
        fp = register(scheduler, small())
        ids = []
        for _ in range(6):
            job = scheduler.submit("discover", fp)
            scheduler.wait(job.id, timeout=60)
            ids.append(job.id)
        assert len(scheduler.jobs()) <= 4
        with pytest.raises(JobError):
            scheduler.job(ids[0])       # pruned
        assert scheduler.job(ids[-1]).status == "done"

    def test_stats(self, scheduler):
        fp = register(scheduler, small())
        scheduler.wait(scheduler.submit("discover", fp).id, timeout=60)
        stats = scheduler.stats()
        assert stats["jobs"].get("done") == 1
        assert stats["workers"] == 1
        assert stats["pool_started"] is False


class TestFailedJobs:
    """A failed job carries one ``{Type}: {message}`` line; a fault's
    traceback goes to a ``job.failed`` event line instead."""

    def test_refusal_is_one_typed_line(self, scheduler):
        fp = register(scheduler, small())
        job = scheduler.submit("delta", fp, {"deletes": [[9, 9, 9]]})
        scheduler.wait(job.id, timeout=60)
        assert job.status == "failed"
        assert job.refused
        assert job.error.startswith("DataError: ")
        assert "\n" not in job.error

    def test_fault_traceback_goes_to_the_event_line(self, scheduler,
                                                    monkeypatch):
        import json

        from repro.obs import events

        def broken(job):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(scheduler, "_run_discover", broken)
        lines = []
        events.set_sink(lines.append)
        try:
            job = scheduler.submit("discover", register(scheduler,
                                                        small()))
            scheduler.wait(job.id, timeout=60)
        finally:
            events.set_sink(None)
        assert job.status == "failed"
        assert not job.refused
        assert job.error == "RuntimeError: disk on fire"
        failed = [json.loads(line) for line in lines
                  if '"job.failed"' in line]
        assert len(failed) == 1
        assert failed[0]["job"] == job.id
        assert failed[0]["error"] == job.error
        assert "Traceback" in failed[0]["traceback"]
        assert "disk on fire" in failed[0]["traceback"]
