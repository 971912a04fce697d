"""Backend resolution, activation, and forced fallback.

The fallback test breaks the toolchain on purpose (``REPRO_KERNELS_CC``
pointing at a nonexistent binary plus a fresh cache directory — the
supported way to force the no-compiler path) and asserts the resolver
degrades to the reference backend with a single warning instead of
crashing.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.kernels import compiled as compiled_module
from repro.kernels.reference import ReferenceBackend
from repro.obs import metrics


@pytest.fixture(autouse=True)
def _fresh_globals(monkeypatch):
    """Each test resolves defaults from scratch; process state is
    restored afterwards."""
    monkeypatch.setattr(kernels, "_default", None)
    monkeypatch.setattr(kernels, "_warned_fallback", False)


def test_resolve_reference_and_default():
    assert kernels.resolve_backend("reference").name == "reference"
    assert kernels.resolve_backend(None) is kernels.default_backend()
    assert kernels.resolve_backend("") is kernels.default_backend()


def test_resolve_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.resolve_backend("simd")


def test_env_variable_picks_default(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "reference")
    assert kernels.default_backend().name == "reference"


def test_set_default_backend_returns_resolved_name():
    assert kernels.set_default_backend("reference") == "reference"
    assert kernels.active_backend_name() == "reference"


def test_activation_stack_nests_and_restores():
    base = kernels.active_backend()
    with kernels.activate("reference") as outer:
        assert kernels.active_backend() is outer
        with kernels.activate(ReferenceBackend()) as inner:
            assert kernels.active_backend() is inner
        assert kernels.active_backend() is outer
    assert kernels.active_backend() is base


def test_activate_none_resolves_default():
    kernels.set_default_backend("reference")
    with kernels.activate(None) as backend:
        assert backend.name == "reference"
    # nested, None keeps the enclosing block's backend, whatever the
    # process default is
    kernels.set_default_backend("auto")
    with kernels.activate("reference") as outer:
        with kernels.activate(None) as backend:
            assert backend is outer


def test_auto_prefers_compiled_when_available():
    if not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    assert kernels.resolve_backend("auto").name == "compiled"


def test_compiled_fallback_when_toolchain_broken(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNELS_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(compiled_module, "_LIB", None)

    with pytest.warns(RuntimeWarning, match="falling back"):
        backend = kernels.resolve_backend("compiled")
    assert backend.name == "reference"
    # the failed build is memoized: no per-call retry...
    assert compiled_module._LIB is False
    assert not kernels.compiled_available()
    # ...and no second warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.resolve_backend("compiled").name == "reference"
        # auto degrades silently by design
        assert kernels.resolve_backend("auto").name == "reference"

    # the degraded backend still computes (dispatch keeps working)
    with kernels.activate("compiled"):
        survivors, dense = kernels.densify(
            np.array([5, 2, 5], dtype=np.int64))
    assert survivors.tolist() == [2, 5]
    assert dense.tolist() == [1, 0, 1]


def test_tier1_env_spelling_matches_docs(monkeypatch):
    """``REPRO_KERNELS=compiled`` must never crash, toolchain or not
    (CI runs the whole suite under it)."""
    monkeypatch.setenv("REPRO_KERNELS", "compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert kernels.default_backend().name in ("compiled", "reference")


KERNELS = ("product", "swap", "split", "densify", "order")


def _billed():
    return {backend: sum(metrics.REGISTRY.value(
                "repro_kernel_calls_total", kernel=kernel,
                backend=backend) for kernel in KERNELS)
            for backend in ("reference", "compiled")}


def _bills_reference_only(run):
    """Run ``run()`` and check that every kernel call it made was
    billed to ``reference``; returns what ``run`` returned."""
    before = _billed()
    out = run()
    after = _billed()
    assert after["compiled"] == before["compiled"], (before, after)
    assert after["reference"] > before["reference"], (before, after)
    return out


@pytest.mark.skipif(not kernels.compiled_available(),
                    reason="no C toolchain; compiled backend unavailable")
def test_one_activation_pins_every_kernel_call_of_a_run():
    """With compiled as the process default, a block under
    ``activate("reference")`` runs every engine entry point's kernels
    on ``reference``: validator, detector, FastOD serial and on pool
    shares, hybrid and the incremental engine's re-check and
    rediscovery.  A pinned ``FastODConfig.kernel_backend`` beats an
    enclosing block."""
    from repro.core.fastod import FastOD, FastODConfig
    from repro.core.hybrid import hybrid_discover
    from repro.core.parser import parse
    from repro.core.validation import CanonicalValidator
    from repro.datasets import make_dataset
    from repro.deltalog import DeltaBatch
    from repro.incremental import IncrementalFastOD
    from repro.violations import ViolationDetector

    kernels.set_default_backend("compiled")
    ocd = "{origin}: month ~ carrier"

    def flight():
        # a fresh encoding per call: no τ_A is cached from another run
        return make_dataset("flight", n_rows=3000, n_attrs=6, seed=42)

    def detect():
        report = ViolationDetector(flight()).check(ocd, max_witnesses=3)
        assert not report.holds and report.witnesses
        return report

    def pooled():
        result = FastOD(flight(), FastODConfig(
            workers=2, parallel_min_grouped_rows=0)).run()
        phases = result.executor_stats["phases"].values()
        assert sum(phase["pool_tasks"] for phase in phases) > 0
        return result

    with kernels.activate("reference"):
        _bills_reference_only(
            lambda: CanonicalValidator(flight()).holds(parse(ocd)))
        _bills_reference_only(detect)
        _bills_reference_only(
            lambda: FastOD(flight(), FastODConfig()).run())
        _bills_reference_only(pooled)
        _bills_reference_only(lambda: hybrid_discover(flight()))
        engine = _bills_reference_only(
            lambda: IncrementalFastOD(flight()))
        # copies of existing rows sit in every held OD's context
        # classes and can flip none: the re-check alone runs
        rows = list(engine.relation.rows())
        report = _bills_reference_only(lambda: engine.apply_delta(
            DeltaBatch.inserts(rows[:5])))
        assert not report.retraversed
        report = _bills_reference_only(lambda: engine.apply_delta(
            DeltaBatch.deletes(rows[:30])))
        assert report.n_deleted == 30 and report.retraversed

    with kernels.activate("compiled"):
        _bills_reference_only(lambda: FastOD(
            flight(), FastODConfig(kernel_backend="reference")).run())
