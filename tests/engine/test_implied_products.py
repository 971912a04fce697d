"""Lattice children an emitted FD already implies take no product.

Augmentation-I: once ``Y: [] ↦ B`` is emitted, every child ``X`` with
``B ∈ X`` and ``Y ⊊ X \\ B`` has ``X \\ B: [] ↦ B``, so Π*_X equals
Π*_{X\\B} and :class:`~repro.engine.planner.PartitionBackend` hands
the child its parent's object instead of a :class:`ProductTask`.  The
guard pins that on a relation with planted FDs; the differential
checks, against the brute-force enumerator, that the reuse never
changes an answer under any configuration or backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.baselines.bruteforce import (all_valid_canonical_ods,
                                        minimal_canonical_ods)
from repro.core.candidates import LatticeNode
from repro.core.fastod import FastOD, FastODConfig
from repro.core.results import diff_results
from repro.engine.executors import SerialExecutor
from repro.engine.planner import PartitionBackend, level_partition_bytes
from repro.engine.telemetry import _TASKS
from repro.partitions.partition import StrippedPartition
from tests.conftest import make_relation

BACKENDS = ["reference"] + (
    ["compiled"] if kernels.compiled_available() else [])

C0, C1, C2, C3 = 1, 2, 4, 8


def planted():
    """c1 is constant and c2 = c0 mod 2; (c0, c3) is the only key."""
    return make_relation(4, [(a, 7, a % 2, d)
                             for a in range(4) for d in range(3)])


def spied_run(monkeypatch, relation):
    """Run FASTOD recording every product task and, per built level,
    the partitions by mask of that level and of the level it was built
    from (taken at build time: pruning and release change the nodes
    later)."""
    tasks, levels = [], []
    run_products = SerialExecutor.run_products
    build_level = PartitionBackend.build_level

    def spy_products(self, parents, batch, budget):
        tasks.extend(batch)
        return run_products(self, parents, batch, budget)

    def spy_build(self, masks, current):
        built = build_level(self, masks, current)
        levels.append(({mask: node.partition
                        for mask, node in current.items()},
                       {mask: node.partition
                        for mask, node in built.items()}))
        return built

    monkeypatch.setattr(SerialExecutor, "run_products", spy_products)
    monkeypatch.setattr(PartitionBackend, "build_level", spy_build)
    result = FastOD(relation).run()
    return result, tasks, levels


def planted_parent(mask: int):
    """X \\ B for the planted FD that implies child X, if any:
    ``{}: [] ↦ c1`` covers every child holding c1 (lowest such B, since
    nothing determines c0), and ``{c0}: [] ↦ c2`` every child of three
    or more attributes holding c0 and c2."""
    if mask & C1:
        return mask ^ C1
    if mask & C0 and mask & C2 and bin(mask).count("1") >= 3:
        return mask ^ C2
    return None


class TestImpliedChildren:
    def test_no_product_task_names_an_implied_child(self, monkeypatch):
        billed = _TASKS.value(phase="products-implied", mode="serial")
        result, tasks, levels = spied_run(monkeypatch, planted())
        built = set().union(*(level for _, level in levels))
        implied = {mask for mask in built
                   if planted_parent(mask) is not None}
        assert {C0 | C1, C1 | C3, C0 | C2 | C3} <= implied
        products = {task.child for task in tasks}
        assert not products & implied
        assert products | implied == built
        phases = result.executor_stats["phases"]
        assert phases["products"]["tasks"] == len(products)
        assert phases["products-implied"]["tasks"] == len(implied)
        assert _TASKS.value(phase="products-implied",
                            mode="serial") - billed == len(implied)

    def test_implied_child_shares_its_parents_partition(self,
                                                       monkeypatch):
        _, _, levels = spied_run(monkeypatch, planted())
        shared = 0
        for current, built in levels:
            for mask, partition in built.items():
                parent = planted_parent(mask)
                if parent is not None:
                    assert partition is current[parent]
                    shared += 1
        assert shared >= 3


def nbytes(partition: StrippedPartition) -> int:
    return partition.rows.nbytes + partition.offsets.nbytes


class TestSharedResidency:
    def test_a_shared_partition_counts_once(self):
        partition = StrippedPartition([[0, 1], [2, 3, 4]], 6)
        size = nbytes(partition)
        assert level_partition_bytes(
            {C0: LatticeNode(C0, partition)},
            {C0 | C1: LatticeNode(C0 | C1, partition)}) == size
        other = StrippedPartition([[0, 1], [2, 3, 4]], 6)
        assert level_partition_bytes(
            {C0: LatticeNode(C0, partition),
             C1: LatticeNode(C1, other)}) == 2 * size

    def test_peak_residency_counts_distinct_partitions(self,
                                                       monkeypatch):
        readings = []
        resident_bytes = PartitionBackend.resident_bytes

        def spy(self, *levels):
            partitions = [node.partition for nodes in levels
                          for node in nodes.values()
                          if node.partition is not None]
            distinct = {id(p): p for p in partitions}.values()
            readings.append((resident_bytes(self, *levels),
                             sum(map(nbytes, distinct)),
                             sum(map(nbytes, partitions))))
            return readings[-1][0]

        monkeypatch.setattr(PartitionBackend, "resident_bytes", spy)
        result = FastOD(planted()).run()
        assert [got for got, _, _ in readings] == [
            distinct for _, distinct, _ in readings]
        assert any(naive > distinct for _, distinct, naive in readings)
        assert [stats.peak_partition_bytes
                for stats in result.level_stats] == [
            got for got, _, _ in readings]
        assert result.executor_stats["peak_residency_bytes"] == max(
            got for got, _, _ in readings)


# ---------------------------------------------------------------------
# differential: planted FDs against the brute-force enumerator
# ---------------------------------------------------------------------
@st.composite
def planted_relations(draw):
    """Free columns plus planted ones: constants, and columns derived
    from one or two free columns through a random map."""
    n_free = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 10))
    domain = draw(st.integers(1, 3))
    cell = st.integers(0, domain)
    columns = [draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
               for _ in range(n_free)]
    for kind in draw(st.lists(st.sampled_from(
            ["constant", "unary", "binary"]), min_size=1, max_size=3)):
        if kind == "constant":
            columns.append([draw(cell)] * n_rows)
            continue
        sources = draw(st.lists(st.integers(0, n_free - 1), min_size=1,
                                max_size=1 if kind == "unary" else 2,
                                unique=True))
        image = draw(st.dictionaries(
            st.tuples(*([cell] * len(sources))), cell, min_size=0))
        columns.append([image.get(key, 0) for key in
                        zip(*(columns[s] for s in sources))])
    order = draw(st.permutations(range(len(columns))))
    rows = list(zip(*(columns[i] for i in order)))
    return make_relation(len(columns), rows)


def minimal_truth(relation, max_level=None):
    truth = minimal_canonical_ods(relation)
    if max_level is not None:
        # a node of level l holds an FD's context plus its attribute,
        # or an OCD's context plus its pair
        truth.fds = [fd for fd in truth.fds
                     if len(fd.context) < max_level]
        truth.ocds = [od for od in truth.ocds
                      if len(od.context) < max_level - 1]
    return truth


CONFIGS = [
    {},
    {"level_pruning": False},
    {"max_level": 3},
    {"key_pruning": False},
    {"workers": 2, "parallel_min_grouped_rows": 0},
]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(planted_relations())
def test_planted_fds_match_bruteforce(backend, relation):
    for options in CONFIGS:
        config = FastODConfig(kernel_backend=backend, **options)
        result = FastOD(relation, config).run()
        expected = minimal_truth(relation, options.get("max_level"))
        assert result.same_ods(expected), (options,
                                           diff_results(result, expected))
    everything = FastOD(relation, FastODConfig(
        kernel_backend=backend, minimality_pruning=False)).run()
    valid_fds, valid_ocds = all_valid_canonical_ods(relation)
    assert set(everything.fds) == valid_fds
    assert set(everything.ocds) == valid_ocds
