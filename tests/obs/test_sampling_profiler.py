"""The sampling profiler: folding, merging, the sampler thread, and
the threads that follow a tracked profiler (the pool's shares)."""

from __future__ import annotations

import contextvars
import threading
import time

from repro.obs import profiler
from repro.obs.profiler import SamplingProfiler


class TestFolding:
    def test_subtract_drops_unchanged_stacks(self):
        counts = {"a;b": 5, "a;c": 2, "d": 1}
        baseline = {"a;b": 3, "a;c": 2}
        assert profiler.subtract(counts, baseline) == {"a;b": 2, "d": 1}

    def test_subtract_never_goes_negative(self):
        assert profiler.subtract({"a": 1}, {"a": 9}) == {}

    def test_merge_counts_accumulates(self):
        into = {"a": 1}
        out = profiler.merge_counts(into, {"a": 2, "b": 3})
        assert out is into
        assert into == {"a": 3, "b": 3}

    def test_merge_counts_prefix_reroots(self):
        into = {}
        profiler.merge_counts(into, {"x;y": 4}, prefix="worker")
        assert into == {"worker;x;y": 4}

    def test_render_folded_heaviest_first(self):
        text = profiler.render_folded({"a;b": 1, "c": 9, "a;a": 1})
        assert text.splitlines() == ["c 9", "a;a 1", "a;b 1"]

    def test_render_folded_empty(self):
        assert profiler.render_folded({}) == ""


class TestSampler:
    def test_start_stop_collects_this_function(self):
        prof = SamplingProfiler(interval=0.001).start()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
        prof.stop()
        counts = prof.counts()
        assert counts
        # the sample-on-start guarantee means this very function is a
        # leaf frame of at least one folded stack
        assert any("test_start_stop_collects_this_function" in stack
                   for stack in counts)
        assert not prof.running

    def test_sample_once_without_thread(self):
        prof = SamplingProfiler()
        prof.sample_once()
        (stack,) = prof.counts()
        # sampling our own thread: the sampler's frame is the leaf,
        # this test the frame right above it
        frames = stack.split(";")
        assert frames[-1] == "profiler:sample_once"
        assert frames[-2] == (
            "test_sampling_profiler:test_sample_once_without_thread")

    def test_short_run_still_non_empty(self):
        # shorter than one tick: the synchronous start/stop samples
        # carry the profile
        prof = SamplingProfiler(interval=60.0).start()
        prof.stop()
        assert prof.counts()

    def test_stack_is_root_first(self):
        prof = SamplingProfiler()
        prof.sample_once()
        (stack,) = prof.counts()
        frames = stack.split(";")
        assert frames[-2].endswith("test_stack_is_root_first")
        assert len(frames) > 2          # callers fold in above it

    def test_retarget_samples_other_thread(self):
        ready = threading.Event()
        done = threading.Event()
        idents = {}

        def parked():
            idents["id"] = threading.get_ident()
            ready.set()
            done.wait(timeout=5.0)

        thread = threading.Thread(target=parked, daemon=True)
        thread.start()
        assert ready.wait(timeout=5.0)
        prof = SamplingProfiler()
        prof.retarget(idents["id"])
        prof.sample_once()
        done.set()
        thread.join(timeout=5.0)
        assert any("parked" in stack for stack in prof.counts())

    def test_clear_and_render(self):
        prof = SamplingProfiler()
        prof.sample_once()
        assert prof.render()
        prof.clear()
        assert prof.render() == ""

    def test_dead_target_samples_nothing(self):
        thread = threading.Thread(target=lambda: None)
        thread.start()
        thread.join()
        prof = SamplingProfiler(thread_id=thread.ident)
        prof.sample_once()
        assert prof.counts() == {}


class TestFollow:
    def test_follower_thread_is_sampled(self):
        prof = SamplingProfiler()
        ready = threading.Event()
        done = threading.Event()

        def parked_follower():
            with profiler.follow():
                ready.set()
                done.wait(timeout=5.0)

        with profiler.track(prof):
            context = contextvars.copy_context()
        thread = threading.Thread(target=context.run,
                                  args=(parked_follower,), daemon=True)
        thread.start()
        assert ready.wait(timeout=5.0)
        prof.sample_once()
        done.set()
        thread.join(timeout=5.0)
        stacks = prof.counts()
        assert any("parked_follower" in stack for stack in stacks)
        assert any(stack.endswith("profiler:sample_once")
                   for stack in stacks)
        # the follow extent ended: later samples see the target only
        prof.clear()
        prof.sample_once()
        assert not any("parked_follower" in s for s in prof.counts())

    def test_job_profiler_samples_pool_threads(self, monkeypatch):
        import repro.core.validation as validation
        from repro.core.fastod import FastOD, FastODConfig
        from repro.datasets import make_dataset

        prof = SamplingProfiler()
        original = validation.scan_verdicts

        def sampled(*args):
            # one sample from inside a share, on a pool thread
            prof.sample_once()
            return original(*args)

        monkeypatch.setattr(validation, "scan_verdicts", sampled)
        relation = make_dataset("flight", n_rows=300, n_attrs=5, seed=6)
        with profiler.track(prof):
            FastOD(relation, FastODConfig(
                workers=2, parallel_min_grouped_rows=0)).run()
        stacks = prof.counts()
        # the pool threads' shares and the waiting calling thread
        assert any("pool:_share" in stack for stack in stacks)
        assert any("pool:_run" in stack and "pool:_share" not in stack
                   for stack in stacks)
        assert not any("profiler:sample_once" in s and "pool:_share" not in s
                       and "pool:_run" not in s for s in stacks)

    def test_untracked_follow_is_inert(self):
        with profiler.follow():
            pass
