"""Differential oracle for the service round trip.

A relation registered through ``POST /datasets`` (JSON ``rows``) and
discovered through ``POST /jobs`` must yield exactly the FDs and OCDs
the brute-force enumerator (:mod:`repro.baselines.bruteforce`) finds
on the same relation.  Relations are small and adversarial: ties,
``None``, mixed int/float cells (``1`` and ``1.0`` share a rank after
the JSON round trip), 1–7 rows and 1–3 columns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import minimal_canonical_ods
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
