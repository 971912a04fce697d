"""General deltas through IncrementalFastOD: byte-identical to
from-scratch FASTOD after arbitrary insert/delete/update sequences,
serial and parallel alike.

The oracle checks ride ``verify_with_oracle=True`` (the engine
asserts its own result against a fresh :class:`FastOD` run after
every batch), so every ``apply_delta`` below is an equivalence
assertion, not just a smoke call.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fastod import FastOD, FastODConfig
from repro.deltalog import DeltaBatch
from repro.errors import DataError
from repro.incremental import IncrementalFastOD
from repro.relation.table import Relation
from tests.conftest import make_relation


def od_strings(result):
    return sorted(str(od) for od in result.all_ods)


def random_stream(seed: int, n_steps: int = 6):
    """A seeded (base_rows, [DeltaBatch, ...]) mixed workload."""
    rng = random.Random(seed)
    n_attrs = rng.choice([3, 4])
    base = [tuple(rng.randint(0, 4) for _ in range(n_attrs))
            for _ in range(rng.randint(6, 18))]
    live = list(base)
    batches = []
    for _ in range(n_steps):
        ops = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if live and roll < 0.35:
                ops.append((-1, live.pop(rng.randrange(len(live)))))
            elif live and roll < 0.6:
                old = live.pop(rng.randrange(len(live)))
                new = tuple(rng.randint(0, 4) for _ in range(n_attrs))
                ops.extend([(-1, old), (1, new)])
                live.append(new)
            else:
                row = tuple(rng.randint(0, 4) for _ in range(n_attrs))
                ops.append((1, row))
                live.append(row)
        batches.append(DeltaBatch(ops))
    return n_attrs, base, batches


class TestDeltaSemantics:
    def test_delete_report_counts(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 10), (2, 20), (3, 5)]),
            verify_with_oracle=True)
        report = engine.apply_delta(DeltaBatch.deletes([(2, 20)]))
        assert report.n_deleted == 1
        assert report.n_appended == 0
        assert report.n_rows == 2
        assert report.retraversed
        engine.close()

    def test_update_is_delete_plus_insert(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 10), (2, 20)]),
            verify_with_oracle=True)
        report = engine.apply_delta(
            DeltaBatch.updates([((2, 20), (2, 25))]))
        assert report.n_deleted == 1 and report.n_appended == 1
        assert list(engine.relation.rows()) == [(1, 10), (2, 25)]
        engine.close()

    def test_cancelling_batch_is_noop(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 10), (2, 20)]),
            verify_with_oracle=True)
        before = od_strings(engine.result)
        report = engine.apply_delta(
            DeltaBatch([(1, (9, 9)), (-1, (9, 9))]))
        assert report.n_deleted == 0 and report.n_appended == 0
        assert not report.retraversed
        assert od_strings(engine.result) == before
        engine.close()

    def test_delete_of_absent_row_raises_and_leaves_state(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 10), (2, 20)]),
            verify_with_oracle=True)
        before = od_strings(engine.result)
        with pytest.raises(DataError):
            engine.apply_delta(DeltaBatch.deletes([(9, 9)]))
        assert list(engine.relation.rows()) == [(1, 10), (2, 20)]
        assert od_strings(engine.result) == before
        # the engine is still usable after the rejected batch
        engine.apply_delta(DeltaBatch.inserts([(3, 30)]))
        engine.close()

    def test_fold_over_another_relation_is_refused(self):
        engine = IncrementalFastOD(make_relation(2, [(1, 10), (2, 20)]))
        before = od_strings(engine.result)
        stale = DeltaBatch.deletes([(1, 10)]).fold(
            make_relation(2, [(1, 10), (2, 20)]))
        with pytest.raises(ValueError):
            engine.apply_delta(stale)
        assert engine.n_batches == 0
        assert od_strings(engine.result) == before
        # a fold over the engine's own relation is adopted as is
        fold = DeltaBatch.deletes([(1, 10)]).fold(engine.relation)
        engine.apply_delta(fold)
        assert engine.relation is fold.relation
        engine.close()

    def test_delete_to_empty_and_regrow(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 10), (2, 20), (3, 5)]),
            verify_with_oracle=True)
        report = engine.apply_delta(
            DeltaBatch.deletes([(1, 10), (2, 20), (3, 5)]))
        assert engine.relation.n_rows == 0
        assert report.n_rows == 0
        engine.apply_delta(DeltaBatch.inserts([(1, 10), (2, 20)]))
        assert engine.relation.n_rows == 2
        engine.close()

    def test_reinsert_identical_row(self):
        rows = [(1, 10), (2, 20), (3, 5)]
        engine = IncrementalFastOD(make_relation(2, rows),
                                   verify_with_oracle=True)
        # -r +r with r resident = move-to-end (never a silent no-op)
        report = engine.apply_delta(
            DeltaBatch([(-1, (2, 20)), (1, (2, 20))]))
        assert report.n_deleted == 1 and report.n_appended == 1
        assert list(engine.relation.rows()) == [
            (1, 10), (3, 5), (2, 20)]
        engine.close()


class TestVerdictMaintenance:
    def test_delete_repromotes_demoted_ocd(self):
        engine = IncrementalFastOD(
            Relation.from_rows(["a", "b"], [(1, 10), (2, 20)]),
            verify_with_oracle=True)
        grown = engine.apply_delta(DeltaBatch.inserts([(3, 5)]))  # a swap
        assert "{}: a ~ b" in grown.invalidated
        shrunk = engine.apply_delta(DeltaBatch.deletes([(3, 5)]))
        assert "{}: a ~ b" in shrunk.appeared
        engine.close()

    def test_delete_repromotes_refuted_fd(self):
        engine = IncrementalFastOD(
            make_relation(2, [(1, 5), (2, 5), (3, 6)]),
            verify_with_oracle=True)
        assert "{}: [] -> c1" not in od_strings(engine.result)
        report = engine.apply_delta(DeltaBatch.deletes([(3, 6)]))
        assert "{}: [] -> c1" in report.appeared
        engine.close()

    def test_true_fds_survive_deletes_without_recheck(self):
        # superkey contexts stay superkeys when rows leave
        engine = IncrementalFastOD(
            make_relation(3, [(1, 2, 3), (4, 5, 6), (7, 8, 9)]),
            verify_with_oracle=True)
        held = set(od_strings(engine.result))
        report = engine.apply_delta(DeltaBatch.deletes([(4, 5, 6)]))
        assert held <= set(od_strings(engine.result)) | set(
            report.invalidated)
        engine.close()


class TestOracleStreams:
    @pytest.mark.parametrize("seed", range(8))
    def test_serial_streams_match_oracle(self, seed):
        n_attrs, base, batches = random_stream(seed)
        engine = IncrementalFastOD(
            make_relation(n_attrs, base), verify_with_oracle=True)
        for batch in batches:
            engine.apply_delta(batch)
        engine.close()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_workers2_streams_byte_identical_to_serial(self, seed):
        n_attrs, base, batches = random_stream(seed)
        histories = []
        for workers in (1, 2):
            config = FastODConfig(
                workers=workers,
                parallel_min_grouped_rows=1 if workers > 1 else None)
            engine = IncrementalFastOD(
                make_relation(n_attrs, base), config,
                verify_with_oracle=True)
            history = []
            for batch in batches:
                engine.apply_delta(batch)
                history.append(od_strings(engine.result))
            engine.close()
            histories.append(history)
        assert histories[0] == histories[1]

    def test_final_state_matches_from_scratch_run(self):
        n_attrs, base, batches = random_stream(99)
        engine = IncrementalFastOD(make_relation(n_attrs, base))
        for batch in batches:
            engine.apply_delta(batch)
        oracle = FastOD(engine.relation, engine._config).run()
        assert od_strings(engine.result) == od_strings(oracle)
        assert engine.result.to_dict()["fds"] == \
            oracle.to_dict()["fds"]
        assert engine.result.to_dict()["ocds"] == \
            oracle.to_dict()["ocds"]
        engine.close()
