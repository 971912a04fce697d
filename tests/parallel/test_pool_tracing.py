"""Tracing across the pool's threads: each share's ``task`` span lands
in the caller's trace buffer under the batch's ``pool-dispatch`` span,
and the engine-level span tree is worker-count invariant."""

from __future__ import annotations

import threading

import pytest

from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.obs import trace


@pytest.fixture(scope="module")
def relation():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=11)


def traced_run(relation, workers):
    config = FastODConfig(workers=workers,
                          parallel_min_grouped_rows=0)
    buffer = trace.TraceBuffer()
    with trace.collect(buffer):
        result = FastOD(relation, config).run()
    return result, buffer.export()


def pruned_shape(spans):
    """The span tree as nested ``(name, children)`` tuples with every
    ``pool-dispatch`` subtree removed — what must be identical at any
    worker count."""
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)

    def build(span):
        children = tuple(
            build(child) for child in by_parent.get(span["id"], ())
            if child["name"] != "pool-dispatch")
        return (span["name"], children)

    return tuple(build(root) for root in by_parent.get(0, ()))


class TestWorkerCountInvariance:
    def test_same_tree_shape_across_worker_counts(self, relation):
        # workers=0 clamps to serial; 2 and 4 split into shares.
        # Dispatch subtrees legitimately vary (share counts follow the
        # worker count) — everything above them must not.
        shapes = {}
        results = {}
        for workers in (0, 2, 4):
            result, spans = traced_run(relation, workers)
            shapes[workers] = pruned_shape(spans)
            results[workers] = (sorted(map(str, result.fds)),
                                sorted(map(str, result.ocds)))
        assert shapes[0] == shapes[2] == shapes[4]
        assert results[0] == results[2] == results[4]


class TestShareSpans:
    @pytest.fixture(scope="class")
    def spans(self, relation):
        _, spans = traced_run(relation, 2)
        return spans

    def test_share_spans_present(self, spans):
        names = {s["name"] for s in spans}
        assert "pool-dispatch" in names
        assert "task" in names
        kinds = {s["kind"] for s in spans if s["name"] == "task"}
        assert kinds == {"products", "scans"}

    def test_share_spans_nest_under_dispatch(self, spans):
        by_id = {s["id"]: s for s in spans}
        tasks = [s for s in spans if s["name"] == "task"]
        assert tasks
        for span in tasks:
            assert by_id[span["parent"]]["name"] == "pool-dispatch"

    def test_share_times_nest_strictly(self, spans):
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["name"] != "task":
                continue
            parent = by_id[span["parent"]]
            assert span["start"] >= parent["start"]
            assert span["end"] <= parent["end"]
            assert span["seconds"] >= 0.0

    def test_task_spans_carry_pool_thread(self, spans):
        threads = {s["thread"] for s in spans if s["name"] == "task"}
        assert threads
        assert all(name.startswith("repro-worker") for name in threads)
        assert threading.current_thread().name not in threads
