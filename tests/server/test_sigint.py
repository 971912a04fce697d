"""SIGINT/SIGTERM contract for long-running CLI commands (watch,
serve).

Both commands must exit with code 130 (128 + SIGINT) on interrupt and
143 (128 + SIGTERM) on termination — the latter is what supervisors
(systemd, Kubernetes) send first — tear their thread pools down
through the command's ``finally`` path, and leave no shared-memory
segments behind.  Regression tests spawn a real subprocess, wait for
its ready line, signal it, and inspect the exit status plus
``/dev/shm``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.relation.csvio import write_csv
from tests.conftest import make_relation

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def shm_segments():
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def spawn_cli(*args, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["PYTHONUNBUFFERED"] = "1"
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)


def read_ready_line(process, marker: str, timeout: float = 30.0) -> str:
    """Block on stdout until the command announces readiness."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if marker in line:
            return line
        if process.poll() is not None:
            break
    pytest.fail(f"never saw {marker!r}; stderr: "
                f"{process.stderr.read()}")


def interrupt_and_wait(process, timeout: float = 30.0) -> int:
    process.send_signal(signal.SIGINT)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        pytest.fail("process ignored SIGINT")


class TestWatchSigint:
    def test_watch_exits_130_without_leaks(self, tmp_path):
        csv = tmp_path / "watched.csv"
        write_csv(make_relation(
            2, [(1, 10), (2, 20), (3, 30)]), csv)
        before = shm_segments()
        process = spawn_cli("watch", str(csv), "--interval", "0.2")
        try:
            read_ready_line(process, "watching")
            code = interrupt_and_wait(process)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 130
        assert "interrupted" in process.stderr.read()
        assert shm_segments() <= before


class TestServeSigint:
    def test_serve_exits_130_without_leaks(self):
        before = shm_segments()
        # REPRO_WORKERS=2 forces the scheduler to build the shared
        # thread pool on the first job — the interesting teardown case
        process = spawn_cli("serve", "--port", "0",
                            extra_env={"REPRO_WORKERS": "2"})
        try:
            ready = read_ready_line(process, "listening on")
            url = ready.strip().rsplit(" ", 1)[-1]
            # drive one register + discover so the pool exists
            body = json.dumps({"columns": ["a", "b"],
                               "rows": [[1, 2], [2, 3], [3, 4]]}
                              ).encode()
            request = urllib.request.Request(
                url + "/datasets", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as resp:
                fp = json.loads(resp.read())["fingerprint"]
            job = json.dumps({"kind": "discover", "fingerprint": fp,
                              "wait": True}).encode()
            request = urllib.request.Request(
                url + "/jobs", data=job, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as resp:
                assert json.loads(resp.read())["status"] == "done"
            code = interrupt_and_wait(process)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 130
        assert "interrupted" in process.stderr.read()
        # every segment the server created (columns publish included)
        # must be unlinked by the finally-path teardown
        assert shm_segments() <= before


def terminate_and_wait(process, timeout: float = 30.0) -> int:
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        pytest.fail("process ignored SIGTERM")


class TestWatchSigterm:
    def test_watch_exits_143_without_leaks(self, tmp_path):
        csv = tmp_path / "watched.csv"
        write_csv(make_relation(
            2, [(1, 10), (2, 20), (3, 30)]), csv)
        before = shm_segments()
        process = spawn_cli("watch", str(csv), "--interval", "0.2")
        try:
            read_ready_line(process, "watching")
            code = terminate_and_wait(process)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 143
        assert "terminated" in process.stderr.read()
        assert shm_segments() <= before


class TestServeSigterm:
    def test_serve_exits_143_without_leaks(self):
        before = shm_segments()
        process = spawn_cli("serve", "--port", "0",
                            extra_env={"REPRO_WORKERS": "2"})
        try:
            read_ready_line(process, "listening on")
            code = terminate_and_wait(process)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 143
        assert "terminated" in process.stderr.read()
        assert shm_segments() <= before

    def test_serve_sigterm_closes_the_journal_cleanly(self, tmp_path):
        """The finally-path teardown runs on SIGTERM, so the journal's
        trusted prefix includes everything appended before the
        signal — a supervisor-restarted server recovers it all."""
        journal_dir = tmp_path / "journal"
        process = spawn_cli("serve", "--port", "0",
                            "--journal-dir", str(journal_dir))
        try:
            ready = read_ready_line(process, "listening on")
            url = ready.strip().rsplit(" ", 1)[-1]
            body = json.dumps({"columns": ["a", "b"],
                               "rows": [[1, 2], [2, 3], [3, 4]]}
                              ).encode()
            request = urllib.request.Request(
                url + "/datasets", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as resp:
                fp = json.loads(resp.read())["fingerprint"]
            code = terminate_and_wait(process)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 143
        from repro.server.journal import JobJournal

        journal = JobJournal(journal_dir)
        state = journal.recover()
        journal.close()
        assert fp in state.datasets
        assert state.crashed_jobs == []
