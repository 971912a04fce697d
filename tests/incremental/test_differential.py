"""Differential oracle for the mutation path.

After every delta batch, three independent answers must agree: the
incremental engine's maintained FD/OCD sets, a from-scratch FASTOD run
on the engine's relation, and the brute-force enumerator
(:mod:`repro.baselines.bruteforce`).  A one-pass
:func:`~repro.deltalog.replay_relation` over the batches applied so
far must also land on the engine's relation, fingerprint for
fingerprint — the boot-time replay and the live engine resolve every
delete to the same occurrence.

Relations are tiny and adversarial: ties, ``None``, booleans beside
the numbers they equal in Python, ints beside equal floats, an int no
float equals, infinities and strings, duplicated rows, 0 and 1 rows.
Streams delete duplicated values, cancel an insert within its own
batch, and update rows.  The fold is also checked against the
raw-value resolver (:mod:`tests.deltalog.raw_resolver`): the same rows
with the same types, encoded as a from-scratch encoding would be.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import minimal_canonical_ods
from repro.core.fastod import FastOD
from repro.core.results import diff_results
from repro.deltalog import DeltaBatch, replay_relation
from repro.incremental import IncrementalFastOD
from repro.relation.fingerprint import fingerprint
from tests.conftest import make_relation
from tests.deltalog import raw_resolver

cells = st.one_of(
    st.integers(0, 2), st.none(), st.booleans(), st.just(np.True_),
    st.sampled_from([1.0, -0.0, 2 ** 53 + 1, float("inf"),
                     float("-inf"), "a", "b"]))


@st.composite
def mutation_case(draw):
    n_cols = draw(st.integers(1, 3))
    row = st.tuples(*([cells] * n_cols))
    base = draw(st.lists(row, max_size=6))
    if base:
        # repeated rows: a delete must pick among equal occurrences
        base += draw(st.lists(st.sampled_from(base), max_size=3))
    live = list(base)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        ops = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(
                ["insert", "delete", "update", "cancel"]))
            if kind in ("delete", "update") and live:
                ops.append((-1, live.pop(
                    draw(st.integers(0, len(live) - 1)))))
                if kind == "delete":
                    continue
            new = draw(row)
            if kind == "cancel":
                ops += [(1, new), (-1, new)]   # the multiset is unchanged
                continue
            ops.append((1, new))
            live.append(new)
        batches.append(DeltaBatch(ops))
    encoded_base = draw(st.booleans())
    return n_cols, base, batches, encoded_base


class TestMutationPathDifferential:
    @settings(max_examples=80, deadline=None)
    @given(mutation_case())
    def test_engine_scratch_bruteforce_and_replay_agree(self, case):
        n_cols, base_rows, batches, encoded_base = case
        base = make_relation(n_cols, base_rows)
        if encoded_base:
            base.encode()
        engine = IncrementalFastOD(make_relation(n_cols, base_rows))
        try:
            for applied, batch in enumerate(batches, start=1):
                engine.apply_delta(batch)
                relation = engine.relation
                scratch = FastOD(relation).run()
                truth = minimal_canonical_ods(relation)
                assert engine.result.same_ods(scratch), \
                    diff_results(engine.result, scratch)
                assert scratch.same_ods(truth), \
                    diff_results(scratch, truth)
                oracle_rows = raw_resolver.replay(
                    base_rows, n_cols, batches[:applied])
                assert raw_resolver.typed(relation.rows()) == \
                    raw_resolver.typed(oracle_rows)
                fresh = make_relation(n_cols, oracle_rows).encode()
                assert [c.tolist() for c in relation.encode().ranks] == \
                    [c.tolist() for c in fresh.ranks]
                assert [k.sorted_keys for k in relation.encode().keys] == \
                    [k.sorted_keys for k in fresh.keys]
                replayed = replay_relation(base, batches[:applied])
                assert fingerprint(replayed) == fingerprint(relation)
                assert raw_resolver.typed(replayed.rows()) == \
                    raw_resolver.typed(relation.rows())
        finally:
            engine.close()
