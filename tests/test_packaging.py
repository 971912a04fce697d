"""The package metadata: what ``pip install -e .`` installs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_egg_info_declares_the_cli_and_the_kernel_source(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base",
         str(tmp_path)], cwd=ROOT, check=True, capture_output=True)
    (info,) = tmp_path.glob("*.egg-info")
    entry_points = (info / "entry_points.txt").read_text()
    assert "repro-od = repro.cli:main" in entry_points
    sources = (info / "SOURCES.txt").read_text().split()
    # compiled.py builds the C backend from the installed source file
    assert "src/repro/kernels/_kernels.c" in sources
    assert f"Version: {repro.__version__}" in (
        info / "PKG-INFO").read_text()
