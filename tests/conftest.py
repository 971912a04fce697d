"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import errno
import os
import random
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.datasets import employees
from repro.relation.table import Relation


@pytest.fixture
def employee_table() -> Relation:
    """The paper's Table 1."""
    return employees()


def make_relation(n_cols: int, rows: List[Tuple[int, ...]]) -> Relation:
    """Relation with columns named c0..c{n-1}."""
    return Relation.from_rows([f"c{i}" for i in range(n_cols)], rows)


@st.composite
def small_relations(draw, max_cols: int = 4, max_rows: int = 10,
                    max_domain: int = 3) -> Relation:
    """Random small integer relations — the workhorse of the
    differential property tests (small domains create both splits and
    swaps with high probability)."""
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    domain = draw(st.integers(min_value=1, max_value=max_domain))
    cell = st.integers(min_value=0, max_value=domain)
    rows = draw(st.lists(
        st.tuples(*([cell] * n_cols)), min_size=n_rows, max_size=n_rows))
    return make_relation(n_cols, rows)


def random_relation(seed: int, n_cols: int, n_rows: int,
                    domain: int) -> Relation:
    """Deterministic random relation for non-hypothesis sweeps."""
    rng = random.Random(seed)
    rows = [tuple(rng.randint(0, domain) for _ in range(n_cols))
            for _ in range(n_rows)]
    return make_relation(n_cols, rows)


class FullDisk:
    """Stands in for a durable log's file handle: the first ``write``
    puts the first ``torn`` bytes of its record on disk, then fails as
    a full disk does; every other call goes to the real handle."""

    def __init__(self, handle, torn: int):
        self._handle = handle
        self._torn = torn
        self._failed = False

    def write(self, data: bytes) -> int:
        if self._failed:
            return self._handle.write(data)
        self._failed = True
        self._handle.write(data[:self._torn])
        self._handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._handle, name)
