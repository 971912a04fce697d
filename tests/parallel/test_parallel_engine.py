"""Serial vs parallel engines must be byte-identical.

The property the whole parallel subsystem is built around: for any
relation, any `FastODConfig` ablation, and any worker count, the
discovered FD/OCD sets (and the per-level candidate counters) equal the
``workers=1`` run's exactly.  The dispatch floor is forced to 0 here
so even tiny relations really split across the pool's threads.
"""

from __future__ import annotations

import pytest

from repro.core.fastod import FastOD, FastODConfig
from repro.core.hybrid import hybrid_discover
from repro.core.results import DiscoveryResult
from repro.datasets import employees, make_dataset
from repro.deltalog import DeltaBatch
from repro.incremental import IncrementalFastOD
from repro.parallel.pool import resolve_workers
from repro.relation.table import Relation
from tests.conftest import make_relation

WORKER_COUNTS = [2, 4]


def od_strings(result: DiscoveryResult):
    return (sorted(str(od) for od in result.fds),
            sorted(str(od) for od in result.ocds))


def assert_identical(serial: DiscoveryResult,
                     parallel: DiscoveryResult) -> None:
    assert od_strings(serial) == od_strings(parallel)
    assert len(serial.level_stats) == len(parallel.level_stats)
    for left, right in zip(serial.level_stats, parallel.level_stats):
        assert left.n_nodes == right.n_nodes
        assert left.n_fd_candidates == right.n_fd_candidates
        assert left.n_ocd_candidates == right.n_ocd_candidates
        assert left.n_fds_found == right.n_fds_found
        assert left.n_ocds_found == right.n_ocds_found
        assert left.n_nodes_pruned == right.n_nodes_pruned


def run(relation: Relation, workers: int, **config_kwargs):
    config = FastODConfig(workers=workers,
                          parallel_min_grouped_rows=0, **config_kwargs)
    return FastOD(relation, config).run()


RELATIONS = {
    "employees": lambda: employees(),
    "flight": lambda: make_dataset("flight", n_rows=400, n_attrs=6,
                                   seed=11),
    "ncvoter": lambda: make_dataset("ncvoter", n_rows=300, n_attrs=5,
                                    seed=5),
    "tiny": lambda: make_relation(3, [(1, 2, 1), (1, 2, 2), (2, 1, 1),
                                      (2, 3, 2), (3, 1, 3)]),
}


class TestDiscoveryIdentity:
    @pytest.mark.parametrize("name", sorted(RELATIONS))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_default_config(self, name, workers):
        relation = RELATIONS[name]()
        assert_identical(run(relation, 1), run(relation, workers))

    @pytest.mark.parametrize("toggle", [
        {"minimality_pruning": False, "level_pruning": False},
        {"level_pruning": False},
        {"key_pruning": False},
        {"max_level": 3},
    ])
    def test_ablation_toggles(self, toggle):
        relation = RELATIONS["flight"]()
        assert_identical(run(relation, 1, **toggle),
                         run(relation, 2, **toggle))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_zero_row_relation(self, workers):
        relation = Relation.from_rows(["a", "b", "c"], [])
        assert_identical(run(relation, 1), run(relation, workers))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_row_relation(self, workers):
        relation = Relation.from_rows(["a", "b", "c"], [(1, 2, 3)])
        assert_identical(run(relation, 1), run(relation, workers))

    def test_injected_pool_is_reused_across_runs(self):
        from repro.parallel.pool import WorkerPool

        relation = RELATIONS["flight"]()
        encoded = relation.encode()
        serial = run(relation, 1)
        with WorkerPool(encoded, 2) as pool:
            for _ in range(2):
                config = FastODConfig(workers=2,
                                      parallel_min_grouped_rows=0)
                result = FastOD(relation, config, pool=pool).run()
                assert_identical(serial, result)
            assert pool.stats()["n_dispatches"] > 0

    def test_pool_must_wrap_same_encoding(self):
        from repro.parallel.pool import WorkerPool

        relation = RELATIONS["tiny"]()
        other = RELATIONS["employees"]()
        with WorkerPool(other.encode(), 2) as pool:
            with pytest.raises(ValueError):
                FastOD(relation, FastODConfig(workers=2), pool=pool)


class TestHybridIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_serial_hybrid_and_fastod(self, workers,
                                              monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0)
        relation = make_dataset("flight", n_rows=600, n_attrs=6, seed=3)
        baseline = FastOD(relation).run()
        serial = hybrid_discover(relation, workers=1)
        parallel = hybrid_discover(relation, workers=workers)
        assert od_strings(serial) == od_strings(baseline)
        assert od_strings(parallel) == od_strings(baseline)


class TestIncrementalIdentity:
    def test_pooled_append_path_matches_oracle(self):
        base = make_dataset("flight", n_rows=300, n_attrs=5, seed=2)
        batches = [list(make_dataset("flight", n_rows=40, n_attrs=5,
                                     seed=100 + i).rows())
                   for i in range(3)]
        config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
        engine = IncrementalFastOD(
            Relation.from_rows(base.names, list(base.rows())), config,
            verify_with_oracle=True)   # oracle asserts identity per batch
        try:
            for batch in batches:
                engine.apply_delta(DeltaBatch.inserts(batch))
        finally:
            engine.close()


class TestTimeoutPrecision:
    def test_expired_deadline_skips_ocd_phase(self, monkeypatch):
        """When the budget dies with the FD phase, the OCD scans of the
        level must not start: FDs found so far are kept, no OCD is
        emitted, and the run is flagged timed out."""
        from repro.engine import DeadlineBudget

        relation = employees()
        calls = {"n": 0}
        # budget checks before level 2's FD/OCD phase boundary:
        # level 1 FD phase (one per node = arity), the products
        # building level 2 (one per level), then level 2's FD phase
        # (one per node = pairs); the next check is the boundary one —
        # make it the first to fire.
        arity = relation.arity
        level2_nodes = arity * (arity - 1) // 2
        boundary_call = arity + 1 + level2_nodes + 1

        def fake_hit(self):
            calls["n"] += 1
            return calls["n"] >= boundary_call

        monkeypatch.setattr(DeadlineBudget, "hit", fake_hit)
        result = FastOD(relation,
                        FastODConfig(timeout_seconds=1e9)).run()
        assert result.timed_out
        assert result.ocds == []
        # the employees instance has level-2 FDs; the FD phase ran
        assert any(len(fd.context) == 1 for fd in result.fds)

    def test_zero_timeout_returns_promptly(self):
        result = FastOD(employees(),
                        FastODConfig(timeout_seconds=0.0)).run()
        assert result.timed_out

    def test_workers_honour_cooperative_deadline(self):
        from repro.engine import DeadlineBudget
        from repro.parallel.pool import WorkerPool

        relation = make_dataset("flight", n_rows=300, n_attrs=5, seed=4)
        encoded = relation.encode()
        from repro.partitions.partition import StrippedPartition
        context = StrippedPartition.single_class(encoded.n_rows)
        tasks = [((a, b), 0, "swap", a, b)
                 for a in range(5) for b in range(a + 1, 5)]
        with WorkerPool(encoded, 2) as pool:
            verdicts, timed_out = pool.run_scans(
                {0: context}, tasks,
                DeadlineBudget(0.0).hit)        # already expired
        assert timed_out
        assert verdicts == {}


class TestPeakMemoryAccounting:
    def test_level_stats_expose_peak_partition_bytes(self):
        result = FastOD(make_dataset("flight", n_rows=200, n_attrs=5,
                                     seed=1)).run()
        assert result.level_stats
        assert all(s.peak_partition_bytes >= 0
                   for s in result.level_stats)
        assert any(s.peak_partition_bytes > 0
                   for s in result.level_stats)
        payload = result.to_dict()
        assert all("peak_partition_bytes" in level
                   for level in payload["levels"])

    def test_serialize_round_trips_peak_bytes(self):
        from repro.core.serialize import result_from_dict, result_to_dict

        result = FastOD(employees()).run()
        reloaded = result_from_dict(result_to_dict(result))
        assert ([s.peak_partition_bytes for s in reloaded.level_stats]
                == [s.peak_partition_bytes for s in result.level_stats])

    def test_bounded_cache_drops_spent_levels(self):
        from repro.partitions.cache import PartitionCache

        relation = make_dataset("flight", n_rows=200, n_attrs=6, seed=9)
        encoded = relation.encode()
        cache = PartitionCache(encoded, max_entries=1000)
        result = FastOD(relation, FastODConfig(), cache=cache).run()
        assert len(result.level_stats) >= 4
        # size-2 contexts are consumed for the last time by level 4's
        # OCD scans; the engine must have invalidated (at least the
        # unpruned ones) from the bounded cache afterwards
        size2 = [m for m in range(1, 1 << encoded.arity)
                 if bin(m).count("1") == 2]
        assert any(cache.peek(mask) is None for mask in size2)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert resolve_workers(None) == 1

    def test_clamps_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_config_to_dict_carries_workers(self):
        config = FastODConfig(workers=4, parallel_min_grouped_rows=0)
        payload = config.to_dict()
        assert payload["workers"] == 4
        assert payload["parallel_min_grouped_rows"] == 0
