"""Differential oracle for the one scan path.

Every route a scan batch takes must agree with the brute-force
enumerator (:mod:`repro.baselines.bruteforce`): serial and pooled,
reference and compiled kernels, contexts the caller supplies (FASTOD's
levels), contexts the executor derives from an attribute mask (the
hybrid escalation waves), and one single-dependency scan (the
validator, always on the coordinator).  Relations are small and
adversarial: ties, ``None``, mixed int/float cells, 0 and 1 rows.
Both pool dispatch floors are patched to 0, so the pooled runs really
leave the coordinator.
"""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.pool as pool_module
from repro import kernels
from repro.baselines import minimal_canonical_ods
from repro.baselines.bruteforce import all_valid_canonical_ods
from repro.core.fastod import FastOD, FastODConfig
from repro.core.hybrid import hybrid_discover
from repro.core.od import CanonicalFD, CanonicalOCD
from repro.core.results import diff_results
from repro.core.validation import CanonicalValidator
from tests.conftest import make_relation

BACKENDS = ["reference"] + (
    ["compiled"] if kernels.compiled_available() else [])

cells = st.one_of(st.integers(0, 2), st.none(),
                  st.sampled_from([0.5, 1.0, 2.0]))


@st.composite
def relations(draw):
    n_cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*([cells] * n_cols)), max_size=7))
    return make_relation(n_cols, rows)


@pytest.fixture(scope="module", autouse=True)
def pooled_dispatch():
    with mock.patch.object(pool_module, "PARALLEL_MIN_GROUPED_ROWS", 0):
        yield


def candidates(names):
    """Every non-trivial canonical FD and OCD over ``names``."""
    for attribute in names:
        others = [n for n in names if n != attribute]
        for size in range(len(others) + 1):
            for context in combinations(others, size):
                yield CanonicalFD(context, attribute)
    for left, right in combinations(names, 2):
        others = [n for n in names if n not in (left, right)]
        for size in range(len(others) + 1):
            for context in combinations(others, size):
                yield CanonicalOCD(context, left, right)


def pool_tasks(stats, phase) -> int:
    return stats["phases"].get(phase, {}).get("pool_tasks", 0)


@settings(max_examples=60, deadline=None)
@given(relations())
def test_every_scan_route_matches_bruteforce(relation):
    truth = minimal_canonical_ods(relation)
    for workers in (1, 2):
        for backend in BACKENDS:
            result = FastOD(relation, FastODConfig(
                workers=workers, kernel_backend=backend)).run()
            assert result.same_ods(truth), diff_results(result, truth)
        # a small sample leaves the escalation waves real work
        hybrid = hybrid_discover(relation, sample_size=3,
                                 workers=workers)
        assert hybrid.same_ods(truth), diff_results(hybrid, truth)
    valid_fds, valid_ocds = all_valid_canonical_ods(relation)
    valid = valid_fds | valid_ocds
    validator = CanonicalValidator(relation)
    for od in candidates(relation.names):
        assert validator.holds(od) == (od in valid), str(od)


def test_pooled_routes_really_dispatch():
    """The floors at 0 put every batch route on the pool: supplied
    contexts (FASTOD) and derived ones (hybrid waves)."""
    relation = make_relation(3, [(0, 1, 2), (0, 2, 1), (1, 1, 1),
                                 (1, 2, 2), (2, 0, 0), (2, 0, 1)])
    result = FastOD(relation, FastODConfig(workers=2)).run()
    assert pool_tasks(result.executor_stats, "ocd-scan") > 0
    hybrid = hybrid_discover(relation, sample_size=2, workers=2)
    assert pool_tasks(hybrid.executor_stats, "wave") > 0
