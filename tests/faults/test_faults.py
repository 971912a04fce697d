"""The fault-injection registry itself: determinism, limits, hooks."""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlan


def firing_sequence(plan: FaultPlan, site: str, visits: int):
    return [plan.fire(site) for _ in range(visits)]


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(seed=7, rates={"store.write": 0.5})
        b = FaultPlan(seed=7, rates={"store.write": 0.5})
        assert (firing_sequence(a, "store.write", 50)
                == firing_sequence(b, "store.write", 50))

    def test_different_seeds_differ(self):
        sequences = {
            tuple(firing_sequence(
                FaultPlan(seed=s, rates={"budget.cancel": 0.5}),
                "budget.cancel", 64))
            for s in range(4)}
        assert len(sequences) > 1

    def test_sites_draw_independently(self):
        """Visits to one site never perturb another site's schedule —
        the property that lets a new injection point land in the code
        without rewriting every chaos test's expectations."""
        rates = {"store.write": 0.5, "budget.cancel": 0.5}
        alone = FaultPlan(seed=3, rates=rates)
        expected = firing_sequence(alone, "budget.cancel", 30)
        interleaved = FaultPlan(seed=3, rates=rates)
        got = []
        for _ in range(30):
            interleaved.fire("store.write")
            got.append(interleaved.fire("budget.cancel"))
        assert got == expected

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=1)
        assert not any(firing_sequence(plan, "deltalog.replay", 100))
        assert plan.fired == {}

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=1, rates={"store.write": 1.0})
        assert all(firing_sequence(plan, "store.write", 10))
        assert plan.fired["store.write"] == 10

    def test_limit_caps_firings(self):
        plan = FaultPlan(seed=1, rates={"store.write": 1.0},
                         limits={"store.write": 3})
        fired = firing_sequence(plan, "store.write", 10)
        assert fired == [True] * 3 + [False] * 7
        assert plan.fired["store.write"] == 3

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"store.writ": 1.0})
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(limits={"nope": 1})
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(delays={"nope": 0.1})

    def test_from_json(self):
        plan = FaultPlan.from_json(
            '{"seed": 9, "rates": {"budget.cancel": 1.0},'
            ' "limits": {"budget.cancel": 2},'
            ' "delays": {"jobs.start.delay": 0.01}}')
        assert plan.seed == 9
        assert plan.rates == {"budget.cancel": 1.0}
        assert plan.limits == {"budget.cancel": 2}
        assert plan.delay_seconds("jobs.start.delay") == 0.01
        # sites without an explicit delay use the default
        assert (plan.delay_seconds("deltalog.append")
                == faults.DEFAULT_DELAY_SECONDS)

    def test_log_records_firing_order(self):
        plan = FaultPlan(seed=1, rates={"store.write": 1.0},
                         limits={"store.write": 2})
        firing_sequence(plan, "store.write", 5)
        assert plan.log == ["store.write#1", "store.write#2"]


class TestActivation:
    def test_no_plan_is_inert(self):
        assert faults.active_plan() is None
        assert faults.fire("store.write") is False
        faults.maybe_raise("deltalog.replay", "never raised")
        faults.maybe_sleep("jobs.start.delay")

    def test_injected_context_restores_previous(self):
        assert faults.active_plan() is None
        with faults.injected(FaultPlan(seed=1)) as plan:
            assert faults.active_plan() is plan
            with faults.injected(FaultPlan(seed=2)) as inner:
                assert faults.active_plan() is inner
            assert faults.active_plan() is plan
        assert faults.active_plan() is None

    def test_env_var_arms_a_plan(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            '{"seed": 5, "rates": {"budget.cancel": 1.0}}')
        # force the lazy env read to happen again
        monkeypatch.setattr(faults, "_PLAN", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        plan = faults.active_plan()
        assert plan is not None
        assert plan.seed == 5
        assert faults.fire("budget.cancel") is True

    def test_env_var_read_once(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        monkeypatch.setattr(faults, "_PLAN", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        assert faults.active_plan() is None
        # setting the env var after the first check changes nothing
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"seed": 1}')
        assert faults.active_plan() is None


class TestHooks:
    def test_maybe_raise_tags_the_site(self):
        with faults.injected(FaultPlan(rates={"deltalog.replay": 1.0})):
            with pytest.raises(FaultInjected,
                               match=r"\[fault:deltalog.replay\] torn"):
                faults.maybe_raise("deltalog.replay", "torn")

    def test_maybe_raise_custom_exception(self):
        with faults.injected(FaultPlan(rates={"store.write": 1.0})):
            with pytest.raises(OSError, match=r"\[fault:store.write\]"):
                faults.maybe_raise("store.write", "disk full",
                                   exc_type=OSError)

    def test_maybe_sleep_uses_plan_delay(self):
        plan = FaultPlan(rates={"jobs.start.delay": 1.0},
                         delays={"jobs.start.delay": 0.05})
        with faults.injected(plan):
            started = time.monotonic()
            faults.maybe_sleep("jobs.start.delay")
            assert time.monotonic() - started >= 0.04
        assert plan.fired["jobs.start.delay"] == 1
