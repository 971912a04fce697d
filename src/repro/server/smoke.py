"""The server smoke suite: ``python -m repro.server.smoke``.

Boots a real ``repro-od serve`` subprocess on an ephemeral port and
drives the documented tenant flow end to end through the typed
client:

1. register a dataset,
2. cold discover — byte-identical to a direct in-process
   :class:`~repro.core.fastod.FastOD` run,
3. cached re-discover — ``cached=True`` with *zero-task* executor
   telemetry (no re-traversal happened),
4. append a batch — the response re-keys the dataset and the grown
   content's discover is again a pure store hit,
5. apply a weighted delta (update + delete) — the response re-keys
   again and discovery matches a direct run on the mutated relation,
6. poll the job list, then

interrupt the server with SIGINT and assert exit code 130 and the
final metrics dump.  The cold discover is split across the shared
pool, and its job trace must hold ``task`` spans from at least two
pool threads under the job's root span.  An in-process service then
checks that no ``repro-worker`` pool thread outlives
:meth:`~repro.server.http.ODService.close`.

A second phase boots a journaled server, streams a delta, ``kill
-9``s it mid-flight, reboots on the same ``--journal-dir``, and
asserts the replayed dataset answers discovery byte-identically to a
direct run on the mutated relation — the crash-consistency contract
of the delta WAL, exercised against a real process.

This is the CI gate for the service layer; it runs with
``REPRO_WORKERS=2`` so the shared pool really exists.  Exit status 0 =
green.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List

from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.engine.telemetry import total_tasks
from repro.relation.table import Relation
from repro.server.client import ServiceClient

DATASET = dict(family="flight", n_rows=2000, n_attrs=6, seed=17)


def span_threads_under_root(spans: List[Dict]) -> set:
    """Names of the threads whose ``task`` spans descend from the
    trace's root ``job`` span."""
    by_id = {span["id"]: span for span in spans}
    threads = set()
    for span in spans:
        if span["name"] != "task":
            continue
        node = span
        while node["parent"] in by_id:
            node = by_id[node["parent"]]
        if node["name"] == "job" and node["parent"] == 0:
            threads.add(span.get("thread"))
    return threads


def pool_threads() -> List[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-worker")]


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        raise SystemExit(f"smoke check failed: {label}")


def main() -> int:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(
        Path(__file__).resolve().parents[2]))
    env["REPRO_WORKERS"] = env.get("REPRO_WORKERS", "2")
    env["PYTHONUNBUFFERED"] = "1"

    print("booting repro-od serve on an ephemeral port ...")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        ready = server.stdout.readline()
        check("listening on" in ready, f"server ready ({ready.strip()})")
        client = ServiceClient(ready.strip().rsplit(" ", 1)[-1])

        check(client.health()["status"] == "ok", "GET /health")

        entry = client.register_dataset(**DATASET)
        fp = entry["fingerprint"]
        check(len(fp) == 64, f"registered {DATASET['family']} as "
                             f"{fp[:12]}…")

        # force pool dispatch (the dataset sits below the grouped-rows
        # floor) so the trace check below sees pool-thread spans —
        # work-shaping config never changes the answer
        cold = client.discover(
            fp, config={"workers": 2, "parallel_min_grouped_rows": 0})
        check(cold["status"] == "done" and not cold["cached"],
              "cold discover completed (pooled)")
        relation = make_dataset(
            DATASET["family"], n_rows=DATASET["n_rows"],
            n_attrs=DATASET["n_attrs"], seed=DATASET["seed"])
        direct = FastOD(relation, FastODConfig()).run().to_dict()
        check(cold["result"]["fds"] == direct["fds"]
              and cold["result"]["ocds"] == direct["ocds"],
              "cold result byte-identical to direct FastOD "
              f"({direct['n_fds']} FDs + {direct['n_ocds']} OCDs)")

        warm = client.discover(fp)
        check(warm["cached"] is True, "re-discover served from store")
        check(total_tasks(warm.get("executor")) == 0,
              "cached hit ran zero executor tasks")
        check(warm["result"]["fds"] == direct["fds"],
              "cached result identical")

        # --- observability surface, scraped mid-run -----------------
        text = client.metrics()
        check(text.startswith("# HELP") and text.endswith("\n"),
              "GET /metrics renders Prometheus text")

        def scrape(sample: str) -> float:
            for line in text.splitlines():
                if line.startswith(sample + " ") \
                        or line.startswith(sample + "{"):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        check(scrape('repro_jobs_finished_total'
                     '{kind="discover",status="done"}') >= 2,
              "job counters count both discovers")
        check(scrape('repro_store_lookups_total'
                     '{outcome="hit"}') >= 1,
              "store hit counter moved on the cached re-discover")
        check(scrape("repro_executor_tasks_total") > 0,
              "executor task counters non-zero")
        check(scrape("repro_http_requests_total") > 0,
              "HTTP request counters non-zero")

        stats = client.stats()
        check(stats["uptime_seconds"] > 0
              and "repro_job_seconds" in stats["metrics"],
              "GET /stats returns the JSON snapshot")

        spans = client.trace(cold["id"])["spans"]
        level_spans = [s for s in spans if s["name"] == "level"]
        check(spans and spans[0]["name"] == "job",
              f"cold job trace captured ({len(spans)} spans)")
        check(level_spans and all(s["seconds"] > 0.0
                                  for s in level_spans),
              "per-level span timings recorded "
              f"({len(level_spans)} levels)")
        check(client.trace(warm["id"])["spans"] == [],
              "cached job trace is empty (no traversal)")

        threads = span_threads_under_root(spans)
        check(len(threads) >= 2,
              "pool task spans from at least 2 threads under the job "
              f"root ({sorted(threads)})")
        folded = client.profile(cold["id"])
        check(bool(folded.strip()) and all(
            line.rsplit(" ", 1)[1].isdigit()
            for line in folded.splitlines()),
            "GET /jobs/{id}/profile returns collapsed stacks "
            f"({len(folded.splitlines())} lines)")

        cold_job = client.job(cold["id"])
        resources = cold_job.get("resources") or {}
        check(resources.get("cpu_user_seconds", -1.0) >= 0.0
              and resources.get("max_rss_bytes", 0) > 0,
              "per-job rusage covers CPU and peak RSS")
        check(cold_job.get("trace_id") and "resources"
              in stats and "self" in stats["resources"],
              "trace ids and process rusage exposed")

        batch = [[int(v) for v in relation.row(i)] for i in range(20)]
        appended = client.append(fp, batch)
        check(appended["status"] == "done", "append folded a batch in")
        new_fp = appended["fingerprint"]
        check(new_fp != fp, "append re-keyed the dataset")
        post = client.discover(new_fp)
        check(post["cached"] is True,
              "post-append discover is a store hit")
        grown = relation.append_rows(batch)
        grown_direct = FastOD(grown, FastODConfig()).run().to_dict()
        check(post["result"]["fds"] == grown_direct["fds"]
              and post["result"]["ocds"] == grown_direct["ocds"],
              "appended result byte-identical to direct FastOD on "
              "the grown relation")

        # a general delta: update one row, delete another
        victim = [int(v) for v in grown.row(0)]
        target = [int(v) for v in grown.row(1)]
        mutated_new = [v + 1 for v in target]
        deltad = client.delta(new_fp, deletes=[victim],
                              updates=[[target, mutated_new]])
        check(deltad["status"] == "done"
              and deltad["report"]["n_deleted"] == 2,
              "delta folded an update + delete in")
        delta_fp = deltad["fingerprint"]
        check(delta_fp != new_fp, "delta re-keyed the dataset")
        check(client.dataset(new_fp)["fingerprint"] == delta_fp,
              "pre-delta fingerprint forwards to the live entry")
        mutated = grown.drop_rows([0, 1]).append_rows([tuple(mutated_new)])
        mutated_direct = FastOD(mutated, FastODConfig()).run().to_dict()
        post_delta = client.discover(delta_fp)
        check(post_delta["result"]["fds"] == mutated_direct["fds"]
              and post_delta["result"]["ocds"] == mutated_direct["ocds"],
              "delta'd result byte-identical to direct FastOD on "
              "the mutated relation")
        check(all(r["fingerprint"] != new_fp
                  for r in client.results()),
              "stale results evicted for the retired fingerprint")

        jobs = client.jobs()
        check(len(jobs) >= 5 and all(
            job["status"] == "done" for job in jobs),
            f"job ledger consistent ({len(jobs)} jobs, all done)")
        check(any(r["fingerprint"] == delta_fp
                  for r in client.results()),
              "result store holds the live fingerprint")
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    check(server.returncode == 130,
          f"SIGINT exit code 130 (got {server.returncode})")
    stderr_tail = server.stderr.read()
    check('"event": "metrics.final"' in stderr_tail,
          "final metrics snapshot dumped on SIGINT teardown")
    pool_teardown_phase()
    crash_recovery_phase(env)
    print("smoke suite green")
    return 0


def pool_teardown_phase() -> None:
    """An in-process service with a 2-thread pool: after one pooled
    discover, ``close()`` must leave no pool thread alive."""
    from repro.server.http import ODService

    print("pool teardown phase: in-process service, 2 threads ...")
    with ODService(port=0, workers=2) as service:
        relation = make_dataset(
            DATASET["family"], n_rows=DATASET["n_rows"],
            n_attrs=DATASET["n_attrs"], seed=DATASET["seed"])
        fp = service.catalog.register(relation,
                                      name="teardown").fingerprint
        job = service.scheduler.submit(
            "discover", fp,
            {"config": {"workers": 2, "parallel_min_grouped_rows": 0}})
        service.scheduler.wait(job.id, timeout=120.0)
        check(job.status == "done" and bool(pool_threads()),
              f"pooled discover ran on {len(pool_threads())} pool "
              "threads")
    check(not pool_threads(),
          f"no repro-worker thread alive after close() "
          f"{pool_threads() or ''}")


def crash_recovery_phase(env: dict) -> None:
    """kill -9 a journaled server mid-stream; the reboot must replay
    the delta WAL and serve byte-identical discovery."""
    print("crash-recovery phase: journaled server + kill -9 ...")
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as jdir:
        boot = [sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--journal-dir", jdir]
        columns = ["a", "b", "c"]
        rows = [[i % 5, i % 3, i] for i in range(60)]
        server = subprocess.Popen(
            boot, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            ready = server.stdout.readline()
            check("listening on" in ready, "journaled server ready")
            client = ServiceClient(ready.strip().rsplit(" ", 1)[-1])
            fp = client.register_rows(columns, rows)["fingerprint"]
            folded = client.delta(
                fp, deletes=[rows[0]],
                updates=[[rows[1], [9, 9, 9]]], inserts=[[7, 7, 7]])
            check(folded["status"] == "done"
                  and folded.get("lsn") == 1,
                  "journaled delta applied at LSN 1")
            live_fp = folded["fingerprint"]
        finally:
            server.kill()                 # SIGKILL: no teardown path
            server.wait()
            server.stdout.close()
            server.stderr.close()
        server = subprocess.Popen(
            boot, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            ready = server.stdout.readline()
            check("listening on" in ready,
                  "rebooted on the same journal")
            client = ServiceClient(ready.strip().rsplit(" ", 1)[-1])
            recovered = client.health()["recovered"]
            check(recovered["delta_batches"] == 1
                  and recovered["delta_errors"] == 0,
                  "boot replay folded the logged delta")
            entry = client.dataset(fp)
            check(entry["fingerprint"] == live_fp
                  and entry["delta_lsn"] == 1,
                  "dataset re-keyed to the post-delta fingerprint")
            mutated = Relation.from_rows(
                columns, [tuple(r) for r in rows[2:]]
                + [(9, 9, 9), (7, 7, 7)])
            direct = FastOD(mutated, FastODConfig()).run().to_dict()
            replayed = client.discover(live_fp)
            check(replayed["result"]["fds"] == direct["fds"]
                  and replayed["result"]["ocds"] == direct["ocds"],
                  "recovered discovery byte-identical to direct "
                  "FastOD on the mutated relation")
            resumed = client.delta(live_fp, inserts=[[8, 8, 8]])
            check(resumed["status"] == "done"
                  and resumed.get("lsn") == 2,
                  "delta stream resumes at the next LSN")
        finally:
            if server.poll() is None:
                server.send_signal(signal.SIGINT)
                try:
                    server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
            server.stdout.close()
            server.stderr.close()


if __name__ == "__main__":
    sys.exit(main())
