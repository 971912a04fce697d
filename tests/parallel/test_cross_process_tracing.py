"""Cross-process tracing: worker spans splice under dispatch spans,
the engine-level span tree is worker-count invariant, and payloads
stay lean when observability is off."""

from __future__ import annotations

import pickle

import pytest

from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.obs import metrics, trace
from repro.parallel.pool import WorkerPool
from repro.partitions.partition import StrippedPartition

WORKER_SPAN_NAMES = ("task", "shm-attach", "kernel")


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
        # workers=0 clamps to serial; 2 and 4 shard across processes.
        # Dispatch subtrees legitimately vary (chunk counts follow the
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


class TestWorkerSpanSplicing:
    @pytest.fixture(scope="class")
    def spans(self, relation):
        _, spans = traced_run(relation, 2)
        return spans

    def test_worker_spans_present(self, spans):
        names = {s["name"] for s in spans}
        assert "pool-dispatch" in names
        assert "task" in names
        assert "kernel" in names

    def test_worker_spans_nest_under_dispatch(self, spans):
        by_id = {s["id"]: s for s in spans}
        checked = 0
        for span in spans:
            if span["name"] not in WORKER_SPAN_NAMES:
                continue
            checked += 1
            node = span
            while node["parent"] != 0:
                node = by_id[node["parent"]]
                if node["name"] == "pool-dispatch":
                    break
            assert node["name"] == "pool-dispatch", (
                f"{span['name']} span not under a dispatch span")
        assert checked > 0

    def test_rebased_times_nest_strictly(self, spans):
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["name"] not in WORKER_SPAN_NAMES:
                continue
            parent = by_id[span["parent"]]
            assert span["start"] >= parent["start"] - 1e-9
            assert span["end"] <= parent["end"] + 1e-9
            assert span["seconds"] >= 0.0

    def test_task_spans_carry_worker_pid(self, spans):
        import os

        pids = {s["pid"] for s in spans if s["name"] == "task"}
        assert pids
        assert os.getpid() not in pids


def scan_fixture(relation):
    encoded = relation.encode()
    contexts = {1 << a: StrippedPartition.for_attribute(encoded, a)
                for a in range(encoded.arity)}
    tasks = [((a, b), 1 << a, "swap", a, b)
             for a in range(encoded.arity)
             for b in range(encoded.arity) if a != b]
    return encoded, contexts, tasks


class TestLeanPayloads:
    """The REPRO_OBS=0 guarantee: the obs context never rides out and
    no export ever rides back — payload bytes identical to a build
    without the feature."""

    # bound at import so back-to-back captures never chain spies
    _ORIGINAL_SUBMIT = WorkerPool._submit

    def run_captured(self, relation, monkeypatch, enabled):
        encoded, contexts, tasks = scan_fixture(relation)
        submitted = []
        original = TestLeanPayloads._ORIGINAL_SUBMIT

        def spy(self, payload):
            submitted.append(payload)
            return original(self, payload)

        monkeypatch.setattr(WorkerPool, "_submit", spy)
        metrics.set_enabled(enabled)
        try:
            with WorkerPool(encoded, 2) as pool:
                verdicts, _ = pool.run_scans(contexts, tasks)
        finally:
            metrics.set_enabled(True)
        assert len(verdicts) == len(tasks)
        assert submitted
        return submitted

    def test_disabled_payloads_have_no_obs_key(self, relation,
                                               monkeypatch):
        for payload in self.run_captured(relation, monkeypatch,
                                         enabled=False):
            assert "obs" not in payload
            assert "_obs" not in payload

    def test_disabled_payloads_do_not_grow(self, relation,
                                           monkeypatch):
        lean = self.run_captured(relation, monkeypatch, enabled=False)
        fat = self.run_captured(relation, monkeypatch, enabled=True)
        assert all("obs" in payload for payload in fat)
        # same dispatch plan either way: the only delta is the obs
        # context, so every lean chunk pickles strictly smaller
        assert len(lean) == len(fat)
        for lean_payload, fat_payload in zip(lean, fat):
            assert (set(fat_payload) - set(lean_payload)) == {"obs"}
            assert (len(pickle.dumps(lean_payload))
                    < len(pickle.dumps(fat_payload)))

    def test_enabled_results_are_scrubbed(self, relation, monkeypatch):
        # the coordinator absorbs "_obs" before results reach callers
        encoded, contexts, tasks = scan_fixture(relation)
        seen = []
        original = WorkerPool._dispatch

        def spy(self, payloads):
            out = original(self, payloads)
            seen.extend(out)
            return out

        monkeypatch.setattr(WorkerPool, "_dispatch", spy)
        with WorkerPool(encoded, 2) as pool:
            pool.run_scans(contexts, tasks)
        assert seen
        for chunk in seen:
            assert "_obs" not in chunk
