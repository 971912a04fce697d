"""Chaos at the service layer: jobs and the result store.

An in-process :class:`ODService` is driven through its scheduler with
faults armed; whatever the injection does to the disk or a job's
budget, the discovery *answer* must match the clean run, and the
service must keep answering.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.datasets import make_dataset
from repro.faults import FaultPlan
from repro.server.http import ODService

#: Force tiny relations over the thread pool, so the faulted jobs run
#: the pooled path.
POOLED_CONFIG = {"workers": 2, "parallel_min_grouped_rows": 0}


@pytest.fixture()
def service(tmp_path):
    with ODService(port=0, workers=2,
                   store_dir=str(tmp_path / "store")) as svc:
        yield svc


def register(service) -> str:
    relation = make_dataset("flight", n_rows=300, n_attrs=5, seed=6)
    entry = service.catalog.register(relation, name="chaos")
    return entry.fingerprint


def run_discover(service, fingerprint: str, **params):
    job = service.scheduler.submit(
        "discover", fingerprint,
        params={"config": dict(POOLED_CONFIG), **params})
    assert service.scheduler.wait(job.id, timeout=120.0).finished
    return job


def dependency_sets(job):
    result = job.payload["result"]
    return (result["fds"], result["ocds"])


class TestChaosDiscovery:
    def test_store_write_fault_does_not_fail_the_job(self, service):
        fp = register(service)
        plan = FaultPlan(seed=0, rates={"store.write": 1.0},
                         limits={"store.write": 1})
        with faults.injected(plan):
            job = run_discover(service, fp)
        assert job.status == "done"
        assert service.store.stats()["write_errors"] == 1
        # the in-memory tier still serves the result as a cache hit
        cached = run_discover(service, fp)
        assert cached.cached


class TestStoreQuarantine:
    def test_corrupt_result_file_is_quarantined(self, service):
        from repro.core.fastod import FastODConfig

        fp = register(service)
        run_discover(service, fp)
        store = service.store
        # the pooled config's work-shaping knobs share the default key
        config = FastODConfig()
        path = store._path(store.key(fp, config))
        assert path.exists()
        path.write_text("{torn", encoding="utf-8")
        with store._lock:
            store._results.clear()      # force the disk tier
        assert store.get(fp, config) is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert store.stats()["quarantined"] == 1


class TestGracefulDegradation:
    def test_healthy_service_reports_ok(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert "degraded" not in health


class TestJobFaultHooks:
    def test_budget_cancel_race_yields_terminal_job(self, service):
        fp = register(service)
        plan = FaultPlan(seed=0, rates={"budget.cancel": 1.0},
                         limits={"budget.cancel": 1})
        with faults.injected(plan):
            job = run_discover(service, fp)
        assert job.finished
        assert job.status in ("done", "cancelled")

    def test_fault_plan_json_round_trips_through_env(self):
        """The plan shape subprocess tests pass via REPRO_FAULT_PLAN."""
        raw = json.dumps({"seed": 3,
                          "rates": {"jobs.start.delay": 1.0},
                          "delays": {"jobs.start.delay": 2.0}})
        plan = FaultPlan.from_json(raw)
        assert plan.delay_seconds("jobs.start.delay") == 2.0
