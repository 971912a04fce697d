"""Fault injection and kill -9 against the delta WAL.

Three failure windows:

* ``deltalog.append`` fires *before* any byte is written — the job
  must fail, the log must sit at its previous LSN, and the dataset
  must stay at its pre-delta fingerprint, its incremental engine at
  its pre-delta relation and result (WAL-first means no log record,
  no state change).
* ``deltalog.replay`` fires at boot — the service must degrade to an
  honest 404 for that dataset (counted in ``delta_errors``), and a
  clean reboot must recover it fully.
* SIGKILL between a delta that committed and one parked mid-flight —
  restart must replay the first from the WAL, surface the second as
  terminal ``crashed``, and hand the resubmit the next LSN.
"""

from __future__ import annotations

import signal
import subprocess

from repro import faults
from repro.core.fastod import FastOD
from repro.deltalog import delta_log_path, read_delta_log
from repro.faults import FaultPlan
from repro.server.client import ServiceClient
from repro.server.http import ODService
from tests.faults.test_crash_recovery import (
    FAULT_PLAN,
    read_url,
    spawn_serve,
    wait_for_status,
)

COLUMNS = ["c0", "c1", "c2"]
ROWS = [[1, 10, 5], [2, 20, 5], [3, 30, 6], [4, 40, 6]]


def register(svc) -> str:
    status, entry = svc.register(
        {"columns": COLUMNS, "rows": ROWS, "name": "faulty"})
    assert status == 201
    return entry["fingerprint"]


class TestAppendFault:
    def test_failed_append_leaves_log_and_state_untouched(
            self, tmp_path):
        journal = tmp_path / "journal"
        with ODService(port=0, workers=1,
                       journal_dir=str(journal)) as svc:
            fp = register(svc)
            plan = FaultPlan(seed=0, rates={"deltalog.append": 1.0})
            with faults.injected(plan):
                job = svc.delta(fp, {"deletes": [[1, 10, 5]],
                                     "inserts": [[5, 50, 7]]})
            assert job["status"] == "failed"
            assert "delta append failed" in job["error"]
            # WAL-first: the fault fired before the write, so there
            # is no record to replay and no state to roll back
            assert read_delta_log(delta_log_path(journal, fp)) == []
            entry = svc.catalog.get(fp)
            assert entry.fingerprint == fp
            assert entry.delta_lsn == 0
            assert [tuple(r) for r in ROWS] == list(
                entry.relation.rows())
            # the job built the engine before the append, and nothing
            # was folded into it: base relation, base result
            engine = entry.incremental
            assert engine.n_batches == 0
            assert engine.relation is entry.relation
            assert engine.result.same_ods(FastOD(entry.relation).run())
            # disarmed, the same delta goes through at LSN 1
            retry = svc.delta(fp, {"deletes": [[1, 10, 5]],
                                   "inserts": [[5, 50, 7]]})
            assert retry["status"] == "done"
            assert retry["lsn"] == 1


    def test_failed_append_leaves_a_warm_engine_untouched(
            self, tmp_path):
        journal = tmp_path / "journal"
        with ODService(port=0, workers=1,
                       journal_dir=str(journal)) as svc:
            fp = register(svc)
            first = svc.delta(fp, {"inserts": [[5, 50, 7]]})
            assert first["status"] == "done"
            entry = svc.catalog.get(fp)
            engine = entry.incremental
            relation, result = engine.relation, engine.result
            plan = FaultPlan(seed=0, rates={"deltalog.append": 1.0})
            with faults.injected(plan):
                job = svc.delta(first["fingerprint"], {
                    "deletes": [[1, 10, 5]], "inserts": [[6, 60, 8]]})
            assert job["status"] == "failed"
            assert entry.incremental is engine
            assert engine.relation is relation
            assert engine.result is result
            assert engine.n_batches == 1
            assert entry.fingerprint == first["fingerprint"]
            assert len(read_delta_log(delta_log_path(journal, fp))) == 1


class TestReplayFault:
    def test_replay_fault_degrades_then_clean_boot_recovers(
            self, tmp_path):
        journal = tmp_path / "journal"
        with ODService(port=0, workers=1,
                       journal_dir=str(journal)) as svc:
            fp = register(svc)
            job = svc.delta(fp, {"updates": [
                [[2, 20, 5], [2, 21, 5]]]})
            assert job["status"] == "done"
            live_fp = job["fingerprint"]

        plan = FaultPlan(seed=0, rates={"deltalog.replay": 1.0})
        with faults.injected(plan):
            with ODService(port=0, workers=1,
                           journal_dir=str(journal)) as svc:
                # graceful degradation: the dataset is skipped and
                # counted, not half-replayed
                assert svc.recovered["delta_errors"] == 1
                assert svc.recovered["delta_batches"] == 0
                assert svc.recovered["datasets"] == 0
                assert fp not in svc.catalog

        # the WAL was never touched; a clean reboot replays it
        with ODService(port=0, workers=1,
                       journal_dir=str(journal)) as svc:
            assert svc.recovered["delta_errors"] == 0
            assert svc.recovered["delta_batches"] == 1
            assert svc.catalog.get(fp).fingerprint == live_fp


def test_sigkill_mid_delta_replays_wal_and_crashes_job(tmp_path):
    """kill -9 with delta 1 fsync'd and delta 2 parked in-flight."""
    journal_dir = tmp_path / "journal"

    # boot 1 (no faults): register and commit delta 1, then SIGKILL —
    # an abrupt death that skips every shutdown hook
    first = spawn_serve(journal_dir)
    try:
        client = ServiceClient(read_url(first), timeout=10.0)
        fp = client.register_rows(COLUMNS, ROWS,
                                  name="faulty")["fingerprint"]
        done = client.delta(fp, deletes=[[1, 10, 5]],
                            inserts=[[5, 50, 7]])
        assert done["status"] == "done"
        assert done["lsn"] == 1
        live_fp = done["fingerprint"]
        first.send_signal(signal.SIGKILL)
        assert first.wait(timeout=15.0) == -signal.SIGKILL
    finally:
        if first.poll() is None:
            first.kill()
        first.wait(timeout=15.0)

    # boot 2 (start-delay fault): delta 1 replays from the WAL, then
    # delta 2 is parked in "running" — the pre-append crash window
    second = spawn_serve(journal_dir,
                         extra_env={"REPRO_FAULT_PLAN": FAULT_PLAN})
    try:
        client = ServiceClient(read_url(second), timeout=10.0)
        health = client.health()
        assert health["recovered"]["delta_batches"] == 1
        assert health["recovered"]["delta_errors"] == 0
        assert [d for d in client.datasets()
                if d["fingerprint"] == live_fp]
        parked = client.delta(live_fp, inserts=[[6, 60, 8]],
                              wait=False)
        wait_for_status(client, parked["id"], "running")
        second.send_signal(signal.SIGKILL)
        assert second.wait(timeout=15.0) == -signal.SIGKILL
    finally:
        if second.poll() is None:
            second.kill()
        second.wait(timeout=15.0)

    # boot 3 (no faults): delta 1 is still the whole durable history;
    # delta 2 never reached the WAL, so it is crashed, not replayed
    third = spawn_serve(journal_dir)
    try:
        client = ServiceClient(read_url(third), timeout=10.0)
        health = client.health()
        assert health["recovered"]["delta_batches"] == 1
        assert health["recovered"]["crashed"] == 1
        job = client.job(parked["id"])
        assert job["status"] == "crashed"
        # the resubmit lands on the warm replayed state at LSN 2
        redo = client.delta(live_fp, inserts=[[6, 60, 8]])
        assert redo["status"] == "done"
        assert redo["lsn"] == 2
        assert read_delta_log(
            delta_log_path(journal_dir, fp))[-1].lsn == 2
    finally:
        third.send_signal(signal.SIGINT)
        try:
            third.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            third.kill()
            third.wait(timeout=15.0)
