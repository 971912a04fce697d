"""IncrementalFastOD: byte-identical to from-scratch FASTOD after
every appended batch, across configs, datasets and random streams."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import employees
from repro.datasets.streaming import drifting_stream, stream_batches
from repro.deltalog import DeltaBatch
from repro.errors import DataError
from repro.incremental import IncrementalFastOD
from repro.relation.table import Relation
from tests.conftest import make_relation


def od_strings(result):
    return sorted(str(od) for od in result.all_ods)


def append(engine, rows):
    """Append ``rows`` (a row list or a relation): an insert-only
    delta."""
    if isinstance(rows, Relation):
        rows = rows.rows()
    return engine.apply_delta(DeltaBatch.inserts(rows))


def assert_oracle(engine):
    oracle = FastOD(engine.relation, engine._config).run()
    assert od_strings(engine.result) == od_strings(oracle)


class TestInitialRun:
    def test_matches_fastod_on_employees(self):
        engine = IncrementalFastOD(employees())
        assert od_strings(engine.result) == od_strings(
            FastOD(employees()).run())

    def test_rejects_timeout_config(self):
        with pytest.raises(ValueError):
            IncrementalFastOD(employees(),
                              FastODConfig(timeout_seconds=1.0))

    def test_empty_relation(self):
        relation = Relation.from_rows(["a", "b"], [])
        engine = IncrementalFastOD(relation, verify_with_oracle=True)
        append(engine, [(1, 2)])
        append(engine, [(1, 3), (2, 3)])
        assert engine.relation.n_rows == 3


class TestAppend:
    def test_swap_invalidates_ocd(self):
        engine = IncrementalFastOD(
            Relation.from_rows(["a", "b"], [(1, 10), (2, 20)]))
        report = append(engine, [(3, 5)])
        assert "{}: a ~ b" in report.invalidated
        assert report.retraversed

    def test_split_invalidates_fd_and_cascades(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 5), (2, 5)]), verify_with_oracle=True)
        assert "{}: [] -> c1" in od_strings(engine.result)
        report = append(engine, [(3, 6)])
        assert "{}: [] -> c1" in report.invalidated

    def test_duplicate_rows_skip_retraversal(self):
        rows = [(1, 10), (2, 20), (2, 20)]
        engine = IncrementalFastOD(make_relation(2, rows),
                                   verify_with_oracle=True)
        report = append(engine, [rows[0], rows[1]])
        assert not report.retraversed
        assert not report.invalidated

    def test_empty_batch_is_a_noop(self):
        engine = IncrementalFastOD(make_relation(2, [(1, 2), (3, 4)]))
        before = od_strings(engine.result)
        report = append(engine, [])
        assert report.n_appended == 0
        assert od_strings(engine.result) == before

    def test_batch_relation_schema_must_match(self):
        engine = IncrementalFastOD(make_relation(2, [(1, 2)]))
        before = od_strings(engine.result)
        with pytest.raises(DataError):
            append(engine, [(1, 2, 3)])
        assert engine.relation.n_rows == 1
        assert od_strings(engine.result) == before

    def test_unseen_values_between_existing_ranks(self):
        # ranks shift but verdicts and state must survive the remap
        engine = IncrementalFastOD(
            make_relation(2, [(10, 100), (30, 300)]),
            verify_with_oracle=True)
        append(engine, [(20, 200)])     # lands between both columns
        append(engine, [(15, 150)])     # swapless, between again
        assert "{}: c0 ~ c1" in od_strings(engine.result)
        append(engine, [(40, 50)])      # now a swap
        assert "{}: c0 ~ c1" not in od_strings(engine.result)

    def test_report_counts_and_totals(self):
        engine = IncrementalFastOD(make_relation(2, [(1, 2), (3, 4)]))
        report = append(engine, [(5, 6), (7, 8)])
        assert report.n_appended == 2
        assert report.n_rows == 4
        assert report.batch_index == 1
        assert engine.n_batches == 1
        payload = report.to_dict()
        assert payload["n_rows"] == 4 and payload["n_ods"] > 0


#: ``{c}: a ~ b`` is the only held OCD: classes c=0 and c=1 rise on
#: both a and b, every unconditional pair has a swap, and c=2 is a
#: singleton
HELD_OCD_ROWS = [(0, 1, 2), (0, 2, 3), (1, 1, 5), (1, 2, 6), (2, 1, 0)]


def _swap_calls(backend: str, kernel: str = "swap") -> float:
    from repro.obs import metrics

    return metrics.REGISTRY.value("repro_kernel_calls_total",
                                  kernel=kernel, backend=backend)


def _swap_dispatches() -> float:
    return _swap_calls("reference") + _swap_calls("compiled")


class TestHeldOcdRecheck:
    """A held OCD is re-checked by one swap scan when an appended row
    lands in a class of its context, and costs nothing when none
    does."""

    @staticmethod
    def _engine():
        engine = IncrementalFastOD(
            Relation.from_rows(["c", "a", "b"], HELD_OCD_ROWS),
            verify_with_oracle=True)
        assert [str(od) for od in engine.result.ocds] == ["{c}: a ~ b"]
        return engine

    def test_swap_in_a_held_context_demotes_it(self):
        engine = self._engine()
        before = _swap_dispatches()
        report = append(engine, [(0, 3, 1)])    # below b=3 of class c=0
        assert "{c}: a ~ b" in report.invalidated
        assert _swap_dispatches() > before

    def test_untouched_classes_keep_it_held_without_scanning(self):
        engine = self._engine()
        before = _swap_dispatches()
        report = append(engine, [(3, 1, 7)])    # c=3: a new singleton
        engine_dispatches = _swap_dispatches() - before
        # verify_with_oracle ran a from-scratch discovery inside the
        # batch; the same discovery again gives the oracle's share
        before = _swap_dispatches()
        FastOD(engine.relation, engine.config).run()
        engine_dispatches -= _swap_dispatches() - before
        assert not report.invalidated and not report.retraversed
        assert "{c}: a ~ b" in od_strings(engine.result)
        assert engine_dispatches == 0

    @pytest.mark.skipif(not kernels.compiled_available(),
                        reason="needs both kernel backends")
    def test_rechecks_run_on_the_configured_backend(self):
        """``FastODConfig.kernel_backend`` pins the append re-check's
        products (the held FD {a,c}: [] -> b needs Π*_{a,c}), level
        1's rank sorts and its swap batch, whatever the process
        default is."""
        default = kernels.active_backend_name()
        pinned = "reference" if default == "compiled" else "compiled"
        engine = IncrementalFastOD(
            Relation.from_rows(["c", "a", "b"], HELD_OCD_ROWS),
            FastODConfig(kernel_backend=pinned))
        kinds = ("product", "swap", "order")

        def calls():
            return {backend: {kind: _swap_calls(backend, kind)
                              for kind in kinds}
                    for backend in (default, pinned)}

        before = calls()
        report = append(engine, [(0, 3, 4)])    # rises in c=0: holds
        after = calls()
        assert not report.retraversed
        assert all(after[pinned][kind] > before[pinned][kind]
                   for kind in kinds)
        assert after[default] == before[default]
        report = append(engine, [(0, 3, 1)])    # re-checks {c}: a ~ b
        assert "{c}: a ~ b" in report.invalidated
        assert calls()[default] == before[default]

    @pytest.mark.skipif(not kernels.compiled_available(),
                        reason="needs both kernel backends")
    def test_rediscovery_runs_on_the_configured_backend(self):
        """A delete batch's rediscovery (level 1's rank sorts, the
        level products and the swap scans) runs on the pinned backend
        too.  The fold is computed up front, so only the engine's own
        kernel calls are counted."""
        default = kernels.active_backend_name()
        pinned = "reference" if default == "compiled" else "compiled"
        base, batches = drifting_stream("flight", n_rows=2000, n_attrs=6,
                                        n_batches=4)
        engine = IncrementalFastOD(base, FastODConfig(kernel_backend=pinned))
        for batch in batches:
            append(engine, batch)
        fold = DeltaBatch.deletes(
            list(engine.relation.rows())[:30]).fold(engine.relation)
        kinds = ("product", "swap", "order")

        def calls():
            return {backend: {kind: _swap_calls(backend, kind)
                              for kind in kinds}
                    for backend in (default, pinned)}

        before = calls()
        report = engine.apply_delta(fold)
        after = calls()
        assert report.n_deleted == 30 and report.retraversed
        assert all(after[pinned][kind] > before[pinned][kind]
                   for kind in kinds)
        assert after[default] == before[default]

    def test_append_after_a_delete_rechecks_it(self):
        """The rediscovery of a delete batch leaves the held OCD in
        the held set, so the append after it re-checks it."""
        engine = self._engine()
        engine.apply_delta(DeltaBatch.deletes([(2, 1, 0)]))
        assert "{c}: a ~ b" in od_strings(engine.result)
        report = append(engine, [(0, 3, 1)])    # below b=3 of class c=0
        assert "{c}: a ~ b" in report.invalidated

    def test_mixed_batch_forgets_the_held_set(self):
        """A mixed batch's inserts can break a held OCD that its
        deletes leave alone: the rediscovery must scan it again, not
        answer it from the held set."""
        engine = self._engine()
        report = engine.apply_delta(
            DeltaBatch([(-1, (2, 1, 0)), (1, (0, 3, 1))]))
        assert report.n_deleted == 1 and report.retraversed
        assert "{c}: a ~ b" in report.invalidated


class TestStreamEquivalence:
    """The acceptance property: identical FD/OCD sets after every batch
    on >= 10 append batches of a synthetic stream."""

    @pytest.mark.parametrize("family", ["flight", "ncvoter", "dbtesma"])
    def test_drifting_family_stream(self, family):
        base, batches = drifting_stream(
            family, n_rows=220, n_attrs=6, n_batches=10,
            drift_after=0.4, drift=0.05)
        engine = IncrementalFastOD(base, verify_with_oracle=True)
        invalidated = 0
        for batch in batches:
            invalidated += len(append(engine, batch).invalidated)
        assert engine.relation.n_rows == 220
        # drift must actually have exercised the demotion path
        assert invalidated > 0

    def test_clean_stream_never_retraverses_after_saturation(self):
        base, batches = stream_batches("flight", n_rows=150, n_attrs=5,
                                       n_batches=8)
        engine = IncrementalFastOD(base, verify_with_oracle=True)
        for batch in batches:
            append(engine, batch)

    @pytest.mark.parametrize("config", [
        FastODConfig(minimality_pruning=False, level_pruning=False),
        FastODConfig(max_level=2),
        FastODConfig(key_pruning=False),
    ])
    def test_config_variants(self, config):
        base, batches = drifting_stream(
            "flight", n_rows=120, n_attrs=5, n_batches=6,
            drift_after=0.3, drift=0.05)
        engine = IncrementalFastOD(base, config,
                                   verify_with_oracle=True)
        for batch in batches:
            append(engine, batch)


cells = st.integers(min_value=0, max_value=2)


@st.composite
def stream_case(draw):
    n_cols = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*([cells] * n_cols))
    rows = draw(st.lists(row, min_size=0, max_size=8))
    batches = draw(st.lists(st.lists(row, min_size=0, max_size=4),
                            min_size=1, max_size=4))
    return n_cols, rows, batches


class TestRandomizedStreams:
    @settings(max_examples=60, deadline=None)
    @given(stream_case())
    def test_always_identical_to_oracle(self, case):
        n_cols, rows, batches = case
        engine = IncrementalFastOD(make_relation(n_cols, rows),
                                   verify_with_oracle=True)
        for batch in batches:
            append(engine, batch)
        # a final explicit cross-check, independent of the flag
        assert_oracle(engine)
