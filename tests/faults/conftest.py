"""Chaos-suite fixtures: every test runs with a clean fault
registry."""

from __future__ import annotations

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()
