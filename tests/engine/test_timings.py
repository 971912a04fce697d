"""``timings``: per-phase wall clock on every entry point.

The observability layer's serialization contract: every entry point
that reports ``executor_stats`` also reports ``timings`` (the
distilled per-phase / per-level wall clock), both survive a
serialize → deserialize round-trip byte-identically, and the
executor's task counts agree with the process-wide metrics registry
on the same run.
"""

from __future__ import annotations

import json

from repro.core.fastod import FastOD, FastODConfig
from repro.core.hybrid import hybrid_discover
from repro.core.serialize import result_from_dict, result_to_dict
from repro.core.validation import CanonicalValidator
from repro.datasets import employees, make_dataset
from repro.deltalog import DeltaBatch
from repro.engine.telemetry import build_timings, total_tasks
from repro.extensions.bidirectional import discover_bidirectional_ocds
from repro.extensions.conditional import discover_conditional_ods
from repro.extensions.pointwise import discover_pointwise_ods
from repro.incremental import IncrementalFastOD
from repro.obs import metrics
from repro.violations.detect import ViolationDetector


def assert_timings_shape(timings, executor_stats, levels=False):
    assert timings is not None
    assert set(timings["phases"]) == set(executor_stats["phases"])
    for phase, seconds in timings["phases"].items():
        assert seconds >= 0.0
        assert seconds == executor_stats["phases"][phase]["seconds"]
    if levels:
        assert timings["levels"]
        for entry in timings["levels"]:
            assert set(entry) == {"level", "seconds"}


def assert_json_exact(payload):
    """JSON round-trips floats exactly (repr-based), so serialized
    timings must come back byte-identical."""
    assert json.loads(json.dumps(payload)) == payload


class TestEntryPointsExposeTimings:
    def test_fastod(self):
        result = FastOD(employees()).run()
        assert_timings_shape(result.timings, result.executor_stats,
                             levels=True)
        assert result.timings["phases"]["fd-check"] > 0.0

    def test_fastod_pooled(self):
        config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
        result = FastOD(make_dataset("flight", n_rows=200, n_attrs=5,
                                     seed=3), config).run()
        assert_timings_shape(result.timings, result.executor_stats,
                             levels=True)

    def test_hybrid(self):
        result = hybrid_discover(employees())
        assert_timings_shape(result.timings, result.executor_stats)
        assert result.timings["phases"]["wave"] > 0.0

    def test_incremental_initial_and_append(self):
        relation = employees()
        engine = IncrementalFastOD(relation)
        try:
            assert_timings_shape(engine.result.timings,
                                 engine.result.executor_stats,
                                 levels=True)
            batch = relation.select_rows(range(relation.n_rows // 2))
            engine.apply_delta(DeltaBatch.inserts(batch.rows()))
            assert_timings_shape(engine.result.timings,
                                 engine.result.executor_stats)
        finally:
            engine.close()

    def test_validator_and_detector(self):
        relation = employees()
        validator = CanonicalValidator(relation.encode())
        try:
            for od in FastOD(relation).run().all_ods:
                validator.holds(od)
            timings = validator.timings()
            assert timings == build_timings(validator.executor_stats())
        finally:
            validator.close()
        assert timings["phases"]["class-scan"] >= 0.0
        assert_json_exact(timings)

        detector = ViolationDetector(relation)
        try:
            detector.check("{posit}: [] -> bin")
            timings = detector.timings()
            assert timings == build_timings(detector.executor_stats())
        finally:
            detector.close()
        assert_json_exact(timings)

    def test_extensions(self):
        relation = employees()
        for result in (
                discover_bidirectional_ocds(relation),
                discover_conditional_ods(relation),
                discover_pointwise_ods(relation)):
            assert_timings_shape(result.timings,
                                 result.executor_stats)
            assert_json_exact(result.timings)
            assert_json_exact(result.executor_stats)


class TestRoundTrip:
    def entry_points(self):
        relation = employees()
        yield FastOD(relation).run()
        yield hybrid_discover(relation)
        engine = IncrementalFastOD(relation)
        try:
            engine.apply_delta(DeltaBatch.inserts(
                relation.select_rows(range(3)).rows()))
            yield engine.result
        finally:
            engine.close()

    def test_serialize_round_trips_byte_identically(self):
        for result in self.entry_points():
            payload = result_to_dict(result)
            reloaded = result_from_dict(payload)
            assert reloaded.timings == result.timings
            assert reloaded.executor_stats == result.executor_stats
            # ... and a second pass through text JSON stays identical
            again = result_from_dict(
                json.loads(json.dumps(payload)))
            assert again.timings == result.timings
            assert again.executor_stats == result.executor_stats

    def test_to_dict_carries_timings(self):
        result = FastOD(employees()).run()
        payload = result.to_dict()
        assert payload["timings"] == result.timings
        json.dumps(payload)


class TestRegistryAgreement:
    def test_total_tasks_matches_registry_counters(self):
        registry = metrics.get_registry()
        tasks_before = registry.total("repro_executor_tasks_total")
        levels_before = registry.value("repro_planner_levels_total")
        result = FastOD(employees()).run()
        tasks_after = registry.total("repro_executor_tasks_total")
        levels_after = registry.value("repro_planner_levels_total")
        assert (tasks_after - tasks_before
                == total_tasks(result.executor_stats))
        assert (levels_after - levels_before
                == len(result.level_stats))

    def test_serial_pool_split_matches_registry(self):
        registry = metrics.get_registry()
        serial_before = registry.total("repro_executor_tasks_total",
                                       mode="serial")
        pool_before = registry.total("repro_executor_tasks_total",
                                     mode="pool")
        config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
        result = FastOD(make_dataset("flight", n_rows=200, n_attrs=5,
                                     seed=3), config).run()
        phases = result.executor_stats["phases"].values()
        assert (registry.total("repro_executor_tasks_total",
                               mode="serial") - serial_before
                == sum(p["serial_tasks"] for p in phases))
        assert (registry.total("repro_executor_tasks_total",
                               mode="pool") - pool_before
                == sum(p["pool_tasks"] for p in phases))
