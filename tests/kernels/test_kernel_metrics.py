"""Per-kernel observability: call/seconds counters by backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.obs import metrics

VALUES = np.array([5, 2, 5, 9], dtype=np.int64)


def _calls(backend):
    return metrics.REGISTRY.value(
        "repro_kernel_calls_total", kernel="densify", backend=backend)


def _seconds(backend):
    return metrics.REGISTRY.value(
        "repro_kernel_seconds_total", kernel="densify", backend=backend)


def test_dispatch_bills_calls_and_seconds_by_backend():
    with kernels.activate("reference"):
        calls_before = _calls("reference")
        seconds_before = _seconds("reference")
        kernels.densify(VALUES)
        kernels.densify(VALUES)
    assert _calls("reference") == calls_before + 2
    assert _seconds("reference") >= seconds_before


def test_all_four_kernel_families_bill():
    from repro.partitions.partition import partition_from_columns
    from tests.conftest import make_relation

    encoded = make_relation(
        3, [(i % 3, i % 2, i % 4) for i in range(40)]).encode()
    context = partition_from_columns(encoded, [0])
    registry = metrics.REGISTRY
    before = {
        kernel: registry.value("repro_kernel_calls_total",
                               kernel=kernel, backend="reference")
        for kernel in ("product", "swap", "split", "densify")
    }
    with kernels.activate("reference"):
        kernels.partition_product(
            context.row_to_class(), context.rows, context.offsets,
            context.class_ids(), context.n_classes)
        kernels.swap_verdicts(
            encoded.ranks, {1: encoded.order(1)}, context.rows,
            context.offsets, [1], [2], [False])
        kernels.split_mismatch(
            encoded.column(1), context.rows, context.offsets,
            context.class_sizes)
        kernels.densify(VALUES)
    for kernel in before:
        assert registry.value(
            "repro_kernel_calls_total", kernel=kernel,
            backend="reference") == before[kernel] + 1, kernel


def test_compiled_backend_bills_its_own_label():
    if not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    before = _calls("compiled")
    with kernels.activate("compiled"):
        kernels.densify(VALUES)
    assert _calls("compiled") == before + 1


def test_billing_short_circuits_when_registry_disabled():
    metrics.set_enabled(False)
    try:
        before = _calls("reference")
        with kernels.activate("reference"):
            kernels.densify(VALUES)  # still computes...
        assert _calls("reference") == before  # ...but bills nothing
    finally:
        metrics.set_enabled(True)


def _swap_calls() -> float:
    return sum(metrics.REGISTRY.value("repro_kernel_calls_total",
                                      kernel="swap", backend=backend)
               for backend in ("reference", "compiled"))


def test_one_swap_call_per_scanned_context(monkeypatch):
    """A serial discovery bills one swap call per distinct context a
    scan batch checks with grouped rows — however many (A, B) pairs
    share it — so fewer calls than scan tasks."""
    from repro.core.fastod import FastOD, FastODConfig
    from repro.engine.executors import SerialExecutor
    from tests.conftest import random_relation

    batches = []          # (swap contexts with grouped rows, tasks)
    run_scans = SerialExecutor.run_scans

    def recording(self, contexts, tasks, budget, phase="scans"):
        keys = {task[1] for task in tasks
                if task[2] in ("swap", "swap_desc")}
        batches.append((sum(1 for key in keys if len(contexts[key].rows)),
                        len(tasks)))
        return run_scans(self, contexts, tasks, budget, phase)

    monkeypatch.setattr(SerialExecutor, "run_scans", recording)
    relation = random_relation(seed=21, n_cols=6, n_rows=300, domain=5)
    before = _swap_calls()
    FastOD(relation, FastODConfig(workers=1)).run()
    billed = _swap_calls() - before
    contexts = sum(n_contexts for n_contexts, _ in batches)
    tasks = sum(n_tasks for _, n_tasks in batches)
    assert billed == contexts > 0
    assert contexts < tasks


def test_swap_verdicts_bill_once_per_call():
    from repro.partitions.partition import partition_from_columns
    from tests.conftest import make_relation

    encoded = make_relation(
        3, [(i % 3, i % 2, i % 4) for i in range(40)]).encode()
    context = partition_from_columns(encoded, [0])
    before = _swap_calls()
    with kernels.activate("reference"):
        kernels.swap_verdicts(
            encoded.ranks, {1: encoded.order(1), 2: encoded.order(2)},
            context.rows, context.offsets, [1, 2, 1], [2, 1, 2],
            [False, False, True])
    assert _swap_calls() == before + 1


def _product_calls() -> float:
    return sum(metrics.REGISTRY.value("repro_kernel_calls_total",
                                      kernel="product", backend=backend)
               for backend in ("reference", "compiled"))


def test_one_product_call_per_level(monkeypatch):
    """A serial discovery bills exactly one product call per lattice
    level with a task whose parents both have grouped rows, and a pooled
    one at most one per share of each such level."""
    from repro.core.fastod import FastOD, FastODConfig
    from repro.engine.executors import SerialExecutor
    from repro.parallel.pool import _DISPATCHES
    from tests.conftest import random_relation

    levels = []           # per run_products call: a task reaches C?
    run_products = SerialExecutor.run_products

    def recording(self, parents, tasks, budget):
        levels.append(any(len(parents[task.left].rows)
                          and len(parents[task.right].rows)
                          for task in tasks))
        return run_products(self, parents, tasks, budget)

    monkeypatch.setattr(SerialExecutor, "run_products", recording)
    relation = random_relation(seed=21, n_cols=6, n_rows=300, domain=5)
    before = _product_calls()
    serial = FastOD(relation, FastODConfig(workers=1)).run()
    assert _product_calls() - before == sum(levels) > 1

    products_before = _DISPATCHES.value(kind="products")
    scans_before = _DISPATCHES.value(kind="scans")
    calls_before = _product_calls()
    pooled = FastOD(relation, FastODConfig(
        workers=2, parallel_min_grouped_rows=0)).run()
    assert _DISPATCHES.value(kind="products") > products_before
    assert _DISPATCHES.value(kind="scans") > scans_before
    assert sum(levels) < _product_calls() - calls_before <= 2 * sum(levels)
    assert ([str(od) for od in pooled.ocds]
            == [str(od) for od in serial.ocds])
