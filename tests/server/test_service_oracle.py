"""Differential oracle for the service round trip.

A relation registered through ``POST /datasets`` (JSON ``rows``) and
discovered through ``POST /jobs`` must yield exactly the FDs and OCDs
the brute-force enumerator (:mod:`repro.baselines.bruteforce`) finds
on the same relation.  Relations are small and adversarial: ties,
``None``, mixed int/float cells (``1`` and ``1.0`` share a rank after
the JSON round trip), 1–7 rows and 1–3 columns.

Deltas sent through ``POST /datasets/{fp}/delta`` mix ``None``,
booleans, ``1``/``1.0`` and strings, name rows that may not exist and
may have the wrong arity.  Each is refused with one error string (a
400 at submission, or a failed job that changes nothing), or lands on
the state a one-pass replay of the accepted deltas reaches.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import minimal_canonical_ods
from repro.deltalog import DeltaBatch, replay_relation
from repro.errors import DataError
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from repro.server import ODService, ServiceClient, ServiceClientError
from tests.conftest import make_relation

cells = st.one_of(st.integers(0, 2), st.none(),
                  st.sampled_from([0.5, 1.0, 2.0]))


@st.composite
def relations(draw):
    n_cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*([cells] * n_cols)),
                         min_size=1, max_size=7))
    return make_relation(n_cols, rows)


@pytest.fixture(scope="module")
def client():
    with ODService(port=0, workers=1) as service:
        yield ServiceClient(service.url)


@settings(max_examples=40, deadline=None)
@given(relations())
def test_register_and_discover_match_bruteforce(client, relation):
    fp = client.register_rows(
        list(relation.names),
        [list(row) for row in relation.rows()])["fingerprint"]
    job = client.discover(fp)
    assert job["status"] == "done", job.get("error")
    truth = minimal_canonical_ods(relation).to_dict()
    assert job["result"]["fds"] == truth["fds"]
    assert job["result"]["ocds"] == truth["ocds"]


def test_zero_row_registration_is_400(client):
    datasets = len(client.datasets())
    with pytest.raises(ServiceClientError) as caught:
        client.register_rows(["c0", "c1"], [])
    assert caught.value.status == 400
    assert len(client.datasets()) == datasets


delta_cells = st.one_of(st.integers(0, 2), st.none(), st.booleans(),
                        st.sampled_from([1.0, 0.5, "a", "b"]))


@st.composite
def relation_and_deltas(draw):
    n_cols = draw(st.integers(1, 3))
    row = st.lists(delta_cells, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    # deletes name registered rows, some of them respelled (1 <-> 1.0,
    # 1 <-> True), or arbitrary ones that may match nothing
    respell = {(int, 1): 1.0, (float, 1.0): True, (bool, True): 1}
    named = st.sampled_from(rows).map(
        lambda r: [respell.get((type(v), v), v) for v in r])
    target = st.one_of(st.sampled_from(rows), named, row)
    bodies = []
    for _ in range(draw(st.integers(1, 3))):
        body = {
            "deletes": draw(st.lists(target, max_size=3)),
            "updates": draw(st.lists(st.tuples(target, row).map(list),
                                     max_size=2)),
            "inserts": draw(st.lists(row, max_size=3)),
        }
        if draw(st.integers(0, 5)) == 0:
            body["inserts"].append([0] * (n_cols + 1))   # wrong arity
        bodies.append({key: value for key, value in body.items() if value}
                      or {"inserts": [[None] * n_cols]})
    return n_cols, rows, bodies


def assert_discovers(client, fp, relation):
    job = client.discover(fp)
    assert job["status"] == "done", job.get("error")
    truth = minimal_canonical_ods(relation).to_dict()
    assert job["result"]["fds"] == truth["fds"]
    assert job["result"]["ocds"] == truth["ocds"]


#: relations of one rank structure share a fingerprint, and a mutated
#: dataset keeps answering at its old one: each example names its
#: columns apart so it never meets another example's dataset
EXAMPLES = itertools.count()


@settings(max_examples=30, deadline=None)
@given(relation_and_deltas())
def test_hostile_deltas_refuse_or_match_the_replayed_oracle(client, case):
    n_cols, rows, bodies = case
    example = next(EXAMPLES)
    base = Relation.from_rows(
        [f"e{example}c{i}" for i in range(n_cols)], [tuple(r) for r in rows])
    fp = client.register_rows(list(base.names), rows)["fingerprint"]
    applied = []
    for body in bodies:
        try:
            reply = client.delta(fp, **body)
        except ServiceClientError as error:
            assert error.status == 400 and str(error)
            with pytest.raises(DataError):
                DeltaBatch.from_request(body, arity=n_cols)
            continue
        batch = DeltaBatch.from_request(body, arity=n_cols)
        if reply["status"] != "done":
            # resolution refused it (an absent row, or an empty
            # result): the model refuses it too and nothing changed
            assert reply["status"] == "failed"
            assert isinstance(reply["error"], str) and reply["error"]
            replayed = replay_relation(base, applied)
            try:
                after = batch.apply_to(replayed)
            except DataError:
                pass
            else:
                assert after.n_rows == 0
            assert_discovers(client, fp, replayed)
            continue
        applied.append(batch)
        replayed = replay_relation(base, applied)
        assert reply["fingerprint"] == fingerprint(replayed)
        fp = reply["fingerprint"]
        assert_discovers(client, fp, replayed)
