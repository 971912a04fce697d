"""FASTOD correctness: completeness + minimality (Theorem 8), pruning
invariance (Lemmas 11-13), statistics, budgets, and edge cases."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

import repro.parallel.pool as pool_module
from repro import FastOD, FastODConfig, discover_ods
from repro.baselines import (
    all_valid_canonical_ods,
    minimal_canonical_ods,
    validate_result_is_sound,
)
from repro.cli import main
from repro.core.od import CanonicalFD
from repro.core.results import diff_results
from repro.datasets import employees, make_dataset
from repro.partitions.cache import PartitionCache
from repro.relation.csvio import write_csv
from tests.conftest import make_relation, random_relation, small_relations


class TestAgainstBruteForce:
    """FASTOD output == definition-level minimal set (Theorem 8)."""

    @settings(max_examples=120, deadline=None)
    @given(small_relations(max_cols=4, max_rows=10, max_domain=3))
    def test_matches_oracle(self, relation):
        fast = discover_ods(relation)
        truth = minimal_canonical_ods(relation)
        assert fast.same_ods(truth), diff_results(fast, truth)

    @pytest.mark.parametrize("seed", range(8))
    def test_five_attribute_sweep(self, seed):
        relation = random_relation(seed, n_cols=5, n_rows=12, domain=2)
        fast = discover_ods(relation)
        truth = minimal_canonical_ods(relation)
        assert fast.same_ods(truth), diff_results(fast, truth)

    def test_employee_table(self, employee_table):
        fast = discover_ods(employee_table)
        truth = minimal_canonical_ods(employee_table)
        assert fast.same_ods(truth)
        assert not validate_result_is_sound(employee_table, fast)


class TestPruningInvariance:
    """Disabling any pruning family never changes the *minimal* output
    (Lemma 11 for level pruning; Lemmas 12-13 for key pruning)."""

    @settings(max_examples=60, deadline=None)
    @given(small_relations(max_cols=4, max_rows=10, max_domain=2))
    def test_level_pruning_invariant(self, relation):
        with_pruning = discover_ods(relation, level_pruning=True)
        without = discover_ods(relation, level_pruning=False)
        assert with_pruning.same_ods(without)

    @settings(max_examples=60, deadline=None)
    @given(small_relations(max_cols=4, max_rows=10, max_domain=2))
    def test_key_pruning_invariant(self, relation):
        with_keys = discover_ods(relation, key_pruning=True)
        without = discover_ods(relation, key_pruning=False)
        assert with_keys.same_ods(without)

    @settings(max_examples=50, deadline=None)
    @given(small_relations(max_cols=3, max_rows=8, max_domain=2))
    def test_no_pruning_mode_finds_all_valid(self, relation):
        """minimality_pruning=False enumerates exactly the valid,
        non-trivial canonical ODs (the Exp-6 'non-minimal' counts)."""
        everything = discover_ods(relation, minimality_pruning=False)
        valid_fds, valid_ocds = all_valid_canonical_ods(relation)
        assert set(everything.fds) == valid_fds
        assert set(everything.ocds) == valid_ocds
        assert not everything.minimal

    @settings(max_examples=50, deadline=None)
    @given(small_relations(max_cols=4, max_rows=8, max_domain=2))
    def test_no_pruning_superset_of_minimal(self, relation):
        minimal = discover_ods(relation)
        everything = discover_ods(relation, minimality_pruning=False)
        assert set(minimal.fds) <= set(everything.fds)
        assert set(minimal.ocds) <= set(everything.ocds)


class TestEdgeCases:
    def test_empty_relation(self):
        result = discover_ods(make_relation(2, []))
        # vacuously, both attributes are constants
        assert {str(fd) for fd in result.fds} == {
            "{}: [] -> c0", "{}: [] -> c1"}
        assert result.ocds == []

    def test_single_row(self):
        result = discover_ods(make_relation(3, [(1, 2, 3)]))
        assert len(result.fds) == 3
        assert all(fd.is_constant for fd in result.fds)
        assert result.ocds == []

    def test_single_attribute(self):
        result = discover_ods(make_relation(1, [(1,), (2,)]))
        assert result.n_ods == 0

    def test_single_constant_attribute(self):
        result = discover_ods(make_relation(1, [(5,), (5,)]))
        assert [str(fd) for fd in result.fds] == ["{}: [] -> c0"]

    def test_all_rows_identical(self):
        result = discover_ods(make_relation(2, [(1, 2)] * 5))
        assert {str(fd) for fd in result.fds} == {
            "{}: [] -> c0", "{}: [] -> c1"}
        assert result.ocds == []  # propagated away, not minimal

    def test_key_column(self):
        # c0 is a key: c0 determines c1 minimally; no deeper FDs
        result = discover_ods(
            make_relation(2, [(1, 7), (2, 7), (3, 9)]))
        assert CanonicalFD({"c0"}, "c1") in result.fds

    def test_two_copies_of_same_column(self):
        result = discover_ods(
            make_relation(2, [(1, 1), (2, 2), (3, 3)]))
        found = {str(od) for od in result.all_ods}
        assert "{c0}: [] -> c1" in found
        assert "{c1}: [] -> c0" in found
        assert "{}: c0 ~ c1" in found


class TestConfig:
    def test_max_level_truncates(self):
        relation = random_relation(3, n_cols=5, n_rows=20, domain=2)
        capped = discover_ods(relation, max_level=2)
        full = discover_ods(relation)
        assert max(s.level for s in capped.level_stats) <= 2
        # level<=2 output is a subset of the full minimal output
        assert set(capped.fds) <= set(full.fds)
        assert set(capped.ocds) <= set(full.ocds)

    def test_timeout_flags_result(self):
        relation = random_relation(1, n_cols=8, n_rows=300, domain=1)
        result = discover_ods(relation, timeout_seconds=0.0)
        assert result.timed_out

    def test_config_recorded(self):
        relation = make_relation(1, [(1,)])
        result = discover_ods(relation, max_level=3)
        assert result.config["max_level"] == 3
        assert result.algorithm == "FASTOD"

    def test_no_pruning_algorithm_name(self):
        relation = make_relation(1, [(1,)])
        result = discover_ods(relation, minimality_pruning=False)
        assert result.algorithm == "FASTOD-NoPruning"

    def test_explicit_config_object(self):
        relation = make_relation(2, [(1, 2), (2, 1)])
        result = FastOD(relation, FastODConfig(max_level=1)).run()
        assert max(s.level for s in result.level_stats) == 1

    @pytest.mark.parametrize("max_level, n_products", [(1, 0), (2, 36)])
    def test_max_level_builds_nothing_above_the_cap(self, max_level,
                                                    n_products):
        """The sweep stops before the products of the level above the
        cap (level 2 of employees' nine attributes holds 36 nodes), and
        emits the full run's ODs of the levels it reached."""
        full = FastOD(employees()).run()
        capped = FastOD(employees(),
                        FastODConfig(max_level=max_level)).run()
        products = capped.executor_stats["phases"].get("products", {})
        assert products.get("tasks", 0) == n_products
        assert [s.level for s in capped.level_stats] == \
            list(range(1, max_level + 1))
        assert capped.fds == [fd for fd in full.fds
                              if len(fd.context) < max_level]
        assert capped.ocds == [od for od in full.ocds
                               if len(od.context) < max_level - 1]


class TestStatistics:
    def test_level_stats_shape(self):
        relation = random_relation(5, n_cols=4, n_rows=30, domain=2)
        result = discover_ods(relation)
        assert result.level_stats[0].level == 1
        assert result.level_stats[0].n_nodes == 4
        assert result.level_stats[1].n_nodes == 6  # C(4,2)
        total = sum(s.n_ods_found for s in result.level_stats)
        assert total == result.n_ods

    def test_ods_attributed_to_correct_level(self):
        relation = random_relation(5, n_cols=4, n_rows=30, domain=2)
        result = discover_ods(relation)
        for stats in result.level_stats:
            # FDs found at level l have context size l-1
            assert len(result.fds_at_level(stats.level - 1)) == \
                stats.n_fds_found or stats.n_fds_found >= 0

    def test_elapsed_positive(self):
        result = discover_ods(make_relation(2, [(1, 2), (2, 3)]))
        assert result.elapsed_seconds > 0


class TestSoundnessLargerSweep:
    """Wider/duplicate-heavy relations, re-validated OD by OD."""

    @pytest.mark.parametrize("seed,cols,rows,domain", [
        (11, 6, 25, 2), (12, 6, 40, 3), (13, 7, 15, 1), (14, 5, 60, 4),
    ])
    def test_sound(self, seed, cols, rows, domain):
        relation = random_relation(seed, cols, rows, domain)
        result = discover_ods(relation)
        assert validate_result_is_sound(relation, result) == []


def test_fastod_builds_no_partition_cache(monkeypatch, tmp_path, capsys):
    """FASTOD derives every lattice level from the one below, so
    neither the CLI nor a serial or pooled run constructs a cache."""
    relation = make_dataset("flight", n_rows=300, n_attrs=6, seed=4)
    path = tmp_path / "flight.csv"
    write_csv(relation, path)
    expected = discover_ods(relation)

    def refuse(*args, **kwargs):
        raise AssertionError("FASTOD built a PartitionCache")

    monkeypatch.setattr(PartitionCache, "__init__", refuse)
    assert main(["discover", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "cache" not in payload
    assert payload["fds"] == expected.to_dict()["fds"]
    assert FastOD(relation).run().same_ods(expected)
    monkeypatch.setattr(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0)
    pooled = FastOD(relation, FastODConfig(workers=2)).run()
    assert pooled.executor_stats["phases"]["products"]["pool_tasks"] > 0
    assert pooled.same_ods(expected)
