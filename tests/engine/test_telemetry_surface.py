"""executor_stats: uniform telemetry on every entry point + round-trip."""

from __future__ import annotations

import json

from repro.core.fastod import FastOD, FastODConfig
from repro.core.hybrid import hybrid_discover
from repro.core.serialize import result_from_dict, result_to_dict
from repro.core.validation import CanonicalValidator
from repro.datasets import employees, make_dataset
from repro.incremental import IncrementalFastOD
from repro.violations.detect import ViolationDetector

REQUIRED_KEYS = {"backend", "workers", "peak_residency_bytes", "phases"}


def assert_shape(stats):
    assert stats is not None
    assert REQUIRED_KEYS <= set(stats)
    for phase in stats["phases"].values():
        assert {"tasks", "serial_tasks", "pool_tasks",
                "dispatches", "seconds"} == set(phase)
        assert phase["serial_tasks"] + phase["pool_tasks"] \
            == phase["tasks"]
        assert phase["seconds"] >= 0.0


class TestEntryPointsExposeStats:
    def test_discover(self):
        result = FastOD(employees()).run()
        assert_shape(result.executor_stats)
        # backend follows $REPRO_WORKERS (serial by default)
        assert result.executor_stats["backend"] in ("serial", "pool")
        assert result.executor_stats["phases"]["fd-check"]["tasks"] > 0
        assert result.executor_stats["peak_residency_bytes"] > 0

    def test_discover_pooled_backend(self):
        config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
        result = FastOD(make_dataset("flight", n_rows=200, n_attrs=5,
                                     seed=3), config).run()
        assert_shape(result.executor_stats)
        assert result.executor_stats["backend"] == "pool"
        pooled = sum(p["pool_tasks"]
                     for p in result.executor_stats["phases"].values())
        assert pooled > 0

    def test_hybrid(self):
        result = hybrid_discover(employees())
        assert_shape(result.executor_stats)
        assert result.executor_stats["phases"]["wave"]["tasks"] > 0

    def test_incremental(self):
        engine = IncrementalFastOD(employees())
        try:
            assert_shape(engine.result.executor_stats)
            assert engine.result.executor_stats["phases"][
                "fd-check"]["tasks"] > 0
            assert_shape(engine.executor_stats())
        finally:
            engine.close()

    def test_validator_and_detector(self):
        relation = employees()
        validator = CanonicalValidator(relation.encode())
        try:
            for od in FastOD(relation).run().all_ods:
                validator.holds(od)
            stats = validator.executor_stats()
        finally:
            validator.close()
        assert_shape(stats)
        assert stats["phases"]["class-scan"]["tasks"] > 0

        detector = ViolationDetector(relation)
        try:
            detector.check("{posit}: [] -> bin")
            stats = detector.executor_stats()
        finally:
            detector.close()
        assert_shape(stats)


class TestJsonAndRoundTrip:
    def test_to_dict_carries_executor(self):
        result = FastOD(employees()).run()
        payload = result.to_dict()
        assert payload["executor"] == result.executor_stats
        json.dumps(payload)          # JSON-ready

    def test_serialize_round_trips_executor_stats(self):
        result = FastOD(employees()).run()
        reloaded = result_from_dict(result_to_dict(result))
        assert reloaded.executor_stats == result.executor_stats

    def test_cli_discover_json_carries_executor(self, tmp_path, capsys):
        from repro.cli import main
        from repro.relation.csvio import write_csv

        path = tmp_path / "data.csv"
        write_csv(employees(), str(path))
        assert main(["discover", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "executor" in payload
        assert_shape(payload["executor"])
        # built products and FD-implied children are billed apart
        phases = payload["executor"]["phases"]
        assert phases["products"]["tasks"] > 0
        assert phases["products-implied"]["tasks"] > 0
