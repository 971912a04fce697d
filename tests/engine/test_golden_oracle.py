"""The refactor contract: byte-identical output vs pre-refactor golden
files.

``tests/golden/unified_engine_golden.json`` was generated at commit
1039275 (the last pre-engine tree) by running every entry point —
discover, hybrid, incremental append, validator, detector, and the
three extension sweeps — and recording their FD/OCD string sets.  The
unified planner/executor engine must reproduce all of them exactly, at
every worker count.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

import repro.parallel.pool as pool_module
from repro.core.fastod import FastOD, FastODConfig
from repro.core.hybrid import hybrid_discover
from repro.core.parser import parse
from repro.core.validation import CanonicalValidator
from repro.datasets import employees, make_dataset, ncvoter_like
from repro.deltalog import DeltaBatch
from repro.extensions import (
    discover_bidirectional_ocds,
    discover_conditional_ods,
    discover_pointwise_ods,
)
from repro.incremental import IncrementalFastOD
from repro.relation.table import Relation
from repro.violations.detect import ViolationDetector

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden"
     / "unified_engine_golden.json").read_text())

#: 0 resolves to serial; 2 and 4 really split across threads (the
#: dispatch floor is forced to 0 below).
WORKER_COUNTS = [0, 2, 4]


@pytest.fixture(scope="module", autouse=True)
def pooled_dispatch():
    """Every entry point's batches split, however small the input —
    the hybrid, incremental and extension runs take no per-run floor
    (the CI tier-1 runs cover both kernel backends)."""
    with mock.patch.object(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0):
        yield


def od_strings(result):
    return {"fds": sorted(str(od) for od in result.fds),
            "ocds": sorted(str(od) for od in result.ocds)}


def relation_named(name: str) -> Relation:
    if name == "employees":
        return employees()
    if name == "flight":
        return make_dataset("flight", n_rows=400, n_attrs=6, seed=11)
    if name == "ncvoter":
        return make_dataset("ncvoter", n_rows=300, n_attrs=5, seed=5)
    raise KeyError(name)


class TestDiscoverGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN["discover"]))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_byte_identical(self, name, workers):
        config = FastODConfig(workers=workers,
                              parallel_min_grouped_rows=0)
        result = FastOD(relation_named(name), config).run()
        assert od_strings(result) == GOLDEN["discover"][name]


class TestHybridGolden:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_byte_identical(self, workers):
        relation = make_dataset("flight", n_rows=600, n_attrs=6, seed=3)
        result = hybrid_discover(relation, sample_size=50, seed=1,
                                 workers=workers)
        assert od_strings(result) == GOLDEN["hybrid"]["flight600"]


class TestIncrementalGolden:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_byte_identical_per_batch(self, workers):
        base = make_dataset("flight", n_rows=300, n_attrs=5, seed=2)
        config = FastODConfig(workers=workers,
                              parallel_min_grouped_rows=0)
        engine = IncrementalFastOD(
            Relation.from_rows(base.names, list(base.rows())), config)
        expected = GOLDEN["incremental"]["flight300+3x40"]
        try:
            assert od_strings(engine.result) == expected[0]
            for i in range(3):
                engine.apply_delta(DeltaBatch.inserts(make_dataset(
                    "flight", n_rows=40, n_attrs=5,
                    seed=100 + i).rows()))
                assert od_strings(engine.result) == expected[i + 1]
        finally:
            engine.close()


def pool_tasks(stats) -> int:
    return sum(phase["pool_tasks"] for phase in stats["phases"].values())


class TestValidatorDetectorGolden:
    """Single-dependency checks scan on the coordinator whatever
    ``REPRO_WORKERS`` says, and match the golden verdicts."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_validator_verdicts(self, workers, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        flight = relation_named("flight")
        validator = CanonicalValidator(flight.encode())
        for text, expected in GOLDEN["validator"]["flight"].items():
            assert validator.holds(parse(text)) == expected, text
        assert pool_tasks(validator.executor_stats()) == 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_detector_reports(self, workers, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        flight = relation_named("flight")
        detector = ViolationDetector(flight)
        for text, expected in GOLDEN["detector"]["flight"].items():
            report = detector.check(text)
            assert report.holds == expected["holds"], text
            assert report.n_violating_pairs == expected["pairs"]
        assert pool_tasks(detector.executor_stats()) == 0


class TestExtensionsGolden:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_bidirectional(self, workers):
        result = discover_bidirectional_ocds(
            ncvoter_like(150, 8), max_context=1, workers=workers)
        assert sorted(str(o) for o in result.ocds) == \
            GOLDEN["extensions"]["bidirectional_ncvoter"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_conditional(self, workers):
        rows = [(0, i, i + 100) for i in range(30)]
        rows += [(1, i, -i) for i in range(30)]
        relation = Relation.from_rows(["c0", "c1", "c2"], rows)
        result = discover_conditional_ods(relation, min_support=0.2,
                                          workers=workers)
        assert sorted(str(c) for c in result.ods) == \
            GOLDEN["extensions"]["conditional_partitioned"]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("key,factory", [
        ("pointwise_employees", lambda: employees()),
        ("pointwise_flight", lambda: make_dataset(
            "flight", n_rows=120, n_attrs=5, seed=7)),
    ])
    def test_pointwise(self, key, factory, workers):
        result = discover_pointwise_ods(factory(), max_lhs=2,
                                        workers=workers)
        assert sorted(str(o) for o in result.ods) == \
            GOLDEN["extensions"][key]
