"""Concurrent service jobs on ONE injected WorkerPool == direct API.

The service scheduler runs every job — discover, append, validate —
on a single shared :class:`WorkerPool`, rebasing it between jobs.
This extends the serial-vs-parallel identity harness one level up:
an *interleaved job stream* (discover A, append B, discover B,
append A, ...) executed at ``workers=2`` through the scheduler must
produce byte-identical FD/OCD sets to running each operation alone
through the direct API with ``workers=1``.

Thresholds are forced to 0 via the per-job config, so even these
small relations really dispatch through the pool.
"""

from __future__ import annotations

import pytest

from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.deltalog import DeltaBatch
from repro.incremental import IncrementalFastOD
from repro.server.catalog import DatasetCatalog
from repro.server.jobs import JobScheduler
from repro.server.store import ResultStore

POOL_CONFIG = {"parallel_min_grouped_rows": 0}


def od_strings(result_dict):
    return (result_dict["fds"], result_dict["ocds"])


def direct_serial(relation, **config_kwargs):
    """The oracle: a workers=1 direct-API run."""
    return FastOD(relation, FastODConfig(
        workers=1, **config_kwargs)).run().to_dict()


@pytest.fixture
def scheduler():
    catalog = DatasetCatalog()
    sched = JobScheduler(catalog, ResultStore(), workers=2)
    yield sched
    sched.close()


def relations():
    return {
        "flight": make_dataset("flight", n_rows=400, n_attrs=6,
                               seed=11),
        "ncvoter": make_dataset("ncvoter", n_rows=300, n_attrs=5,
                                seed=5),
    }


class TestInterleavedJobsIdentity:
    def test_discover_jobs_interleaved_across_datasets(self, scheduler):
        """Back-to-back discoveries of different relations force pool
        rebases between jobs; results must match serial oracles."""
        rels = relations()
        fps = {name: scheduler._catalog.register(rel).fingerprint
               for name, rel in rels.items()}
        # submit everything up front: the queue interleaves datasets
        jobs = []
        for _ in range(2):
            for name, fp in fps.items():
                jobs.append((name, scheduler.submit(
                    "discover", fp, {"config": dict(POOL_CONFIG)})))
        for name, job in jobs:
            scheduler.wait(job.id, timeout=300)
            assert job.status == "done", job.error
            oracle = direct_serial(rels[name],
                                   parallel_min_grouped_rows=0)
            assert od_strings(job.payload["result"]) == od_strings(
                oracle)
        # the pool really ran: at least one non-cached job dispatched
        # pooled tasks
        pooled = [job for _, job in jobs if not job.cached]
        assert pooled
        assert any(
            sum(phase["pool_tasks"]
                for phase in job.executor_stats["phases"].values()) > 0
            for job in pooled)
        # repeats were store hits, not re-traversals
        assert [job for _, job in jobs if job.cached]

    def test_interleaved_discover_and_append(self, scheduler):
        """discover A, append B, discover B', append A, discover A' —
        one pool, many rebases — equals direct-API runs."""
        flight = make_dataset("flight", n_rows=400, n_attrs=6, seed=11)
        voters = make_dataset("ncvoter", n_rows=300, n_attrs=5, seed=5)
        batch_f = [list(flight.row(i)) for i in range(5)]
        batch_v = [list(voters.row(i)) for i in range(5)]

        fp_f = scheduler._catalog.register(flight).fingerprint
        fp_v = scheduler._catalog.register(voters).fingerprint

        d1 = scheduler.submit("discover", fp_f,
                              {"config": dict(POOL_CONFIG)})
        a1 = scheduler.submit("append", fp_v,
                              {"rows": batch_v,
                               "config": dict(POOL_CONFIG)})
        a2 = scheduler.submit("append", fp_f,
                              {"rows": batch_f,
                               "config": dict(POOL_CONFIG)})
        for job in (d1, a1, a2):
            scheduler.wait(job.id, timeout=300)
            assert job.status == "done", job.error

        # oracle 1: plain discovery of flight
        assert od_strings(d1.payload["result"]) == od_strings(
            direct_serial(flight, parallel_min_grouped_rows=0))
        # oracle 2: serial incremental append on ncvoter
        oracle_v = IncrementalFastOD(voters, FastODConfig(workers=1))
        oracle_v.apply_delta(DeltaBatch.inserts(batch_v))
        assert od_strings(a1.payload["result"]) == od_strings(
            oracle_v.result.to_dict())
        oracle_v.close()
        # oracle 3: serial incremental append on flight
        oracle_f = IncrementalFastOD(flight.take(400),
                                     FastODConfig(workers=1))
        oracle_f.apply_delta(DeltaBatch.inserts(batch_f))
        assert od_strings(a2.payload["result"]) == od_strings(
            oracle_f.result.to_dict())
        oracle_f.close()
        # and the appended content equals a from-scratch run on the
        # grown relation
        grown = flight.append_rows(batch_f)
        assert od_strings(a2.payload["result"]) == od_strings(
            direct_serial(grown))

    def test_validate_jobs_share_the_pool(self, scheduler):
        relation = make_dataset("flight", n_rows=400, n_attrs=6,
                                seed=11)
        fp = scheduler._catalog.register(relation).fingerprint
        discover = scheduler.submit("discover", fp,
                                    {"config": dict(POOL_CONFIG)})
        scheduler.wait(discover.id, timeout=300)
        assert discover.status == "done", discover.error
        # every discovered OD must validate True through the service
        fds = discover.payload["result"]["fds"]
        checks = [scheduler.submit("validate", fp,
                                   {"dependency": fd})
                  for fd in fds[:4]]
        for job in checks:
            scheduler.wait(job.id, timeout=300)
            assert job.status == "done", job.error
            assert job.payload["report"]["holds"] is True
        assert scheduler.stats()["pool_started"] is True


class TestPoolLifecycleAcrossJobs:
    def test_one_pool_instance_survives_the_stream(self, scheduler):
        rels = relations()
        fps = [scheduler._catalog.register(rel).fingerprint
               for rel in rels.values()]
        for fp in fps:
            scheduler.wait(scheduler.submit(
                "discover", fp, {"config": dict(POOL_CONFIG)}).id,
                timeout=300)
        pool = scheduler._pool
        assert pool is not None and not pool.closed
        # a further job on either relation reuses the same object
        scheduler.wait(scheduler.submit(
            "discover", fps[0],
            {"config": {"parallel_min_grouped_rows": 0,
                        "max_level": 2}}).id, timeout=300)
        assert scheduler._pool is pool

    def test_close_tears_the_pool_down(self):
        catalog = DatasetCatalog()
        sched = JobScheduler(catalog, ResultStore(), workers=2)
        fp = catalog.register(
            make_dataset("flight", n_rows=400, n_attrs=5,
                         seed=3)).fingerprint
        sched.wait(sched.submit(
            "discover", fp, {"config": dict(POOL_CONFIG)}).id,
            timeout=300)
        pool = sched._pool
        sched.close()
        assert pool is None or pool.closed
        assert sched._pool is None
