"""Shared plumbing: checkout paths, the program's environment, summary
statistics, memory and registry readings, and provenance."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes lives here (ignored by git)
BUILD = ROOT / ".bench_build"
KERNEL_CACHE = BUILD / "repro-kernels"
TMP = BUILD / "tmp"
RESULTS = BUILD / "perfbench"

#: knobs that would change what the program does; the benchmark runs
#: it with its defaults, so these are removed (and recorded as seen)
DEFAULTED_ENV = ("REPRO_OBS", "REPRO_KERNELS", "REPRO_WORKERS")


def prepare_environment() -> Dict[str, str]:
    """Point every cache and temp file of the program into the
    checkout and drop the behaviour knobs.  Returns the ``REPRO_*``
    variables as they were before."""
    seen = {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")}
    for key in DEFAULTED_ENV:
        os.environ.pop(key, None)
    for directory in (KERNEL_CACHE, TMP, RESULTS):
        directory.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(KERNEL_CACHE)
    os.environ["TMPDIR"] = str(TMP)
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (str(SRC) if not pythonpath
                                else f"{SRC}{os.pathsep}{pythonpath}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return seen


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
#: prctl option that makes orphaned descendants re-parent to this process
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant (a CLI child's helpers, say), so
    :func:`stop_children` can wait for grandchildren too; False where
    the kernel refuses."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def child_pids() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the fields after "(comm)": state, ppid, ...
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap() -> bool:
    """Collect every exited child; False once no child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has
    ended: pool workers, the ``multiprocessing`` resource tracker (which
    the standard library starts for shared memory and never waits for),
    and any adopted orphan.  Stragglers get SIGTERM after ``grace_s``,
    then SIGKILL."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass
    deadline = time.monotonic() + grace_s
    signal_sent = None
    while _reap():
        live = child_pids()
        if not live:
            break
        now = time.monotonic()
        wanted = (signal.SIGKILL if now > deadline + grace_s
                  else signal.SIGTERM if now > deadline else None)
        if wanted is not None and wanted != signal_sent:
            for pid in live:
                try:
                    os.kill(pid, wanted)
                except ProcessLookupError:
                    pass
            signal_sent = wanted
        time.sleep(0.02)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return float(ordered[index - 1])


def supports_p90(n_samples: int) -> bool:
    """A p90 is reported only with at least ten samples beyond it."""
    return n_samples * 0.1 >= 10


def host_loop_ms(repeats: int = 9) -> float:
    """Median milliseconds of a fixed pure-Python loop: a yardstick for
    how fast the host ran around a measurement (shared hosts drift by
    tens of percent over minutes)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        samples.append((time.perf_counter() - started) * 1000.0)
    return median(samples)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def reset_peak_rss(pid) -> bool:
    """Restart a process's peak resident memory (``VmHWM``) at its
    current size, so a later :func:`peak_rss_mb` covers only what ran
    after this; False where the kernel refuses."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pid) -> float:
    """Peak resident memory of a live process (``"self"`` for this
    one), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


# ----------------------------------------------------------------------
# the program's metrics registry
# ----------------------------------------------------------------------
Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def flatten_registry(snapshot: Dict) -> Dict[Key, float]:
    """``{(family, labels): value}``; a histogram contributes its sum
    under its own name and its count under ``<name>:count``."""
    flat: Dict[Key, float] = {}
    for name, family in snapshot.items():
        for entry in family.get("values", ()):
            labels = tuple(sorted(entry.get("labels", {}).items()))
            if "value" in entry:
                flat[(name, labels)] = float(entry["value"])
            else:
                flat[(name, labels)] = float(entry.get("sum", 0.0))
                flat[(name + ":count", labels)] = float(
                    entry.get("count", 0))
    return flat


def registry_now() -> Dict[Key, float]:
    from repro.obs import metrics

    return flatten_registry(metrics.get_registry().snapshot())


def registry_delta(before: Dict[Key, float],
                   after: Dict[Key, float]) -> Dict[Key, float]:
    return {key: value - before.get(key, 0.0)
            for key, value in after.items()
            if value != before.get(key, 0.0)}


def add_into(total: Dict[Key, float], delta: Dict[Key, float]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0.0) + value


def family_total(flat: Dict[Key, float], name: str, **labels) -> float:
    """Sum of a family's children whose labels include ``labels``."""
    wanted = {(k, str(v)) for k, v in labels.items()}
    return sum(value for (family, child), value in flat.items()
               if family == name and wanted <= set(child))


def kernel_backends(flat: Dict[Key, float]) -> List[str]:
    """Backends that served kernel calls, read from the labels of
    ``repro_kernel_calls_total`` (what ran, not what was asked for)."""
    return sorted({dict(child).get("backend", "?")
                   for (family, child), value in flat.items()
                   if family == "repro_kernel_calls_total" and value > 0})


def span_backends() -> List[str]:
    """Backends named by the kernel spans pool workers ship back into
    the coordinator's trace ring (worker processes bill kernel calls
    to their own registries, which the coordinator never sees)."""
    from repro.obs import trace

    return sorted({str(record["backend"])
                   for record in trace.current_buffer().export()
                   if record.get("name") == "kernel"
                   and "backend" in record})


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def kernel_cache_files() -> List[str]:
    if not KERNEL_CACHE.is_dir():
        return []
    return sorted(path.name for path in KERNEL_CACHE.glob("*.so"))


def c_compiler() -> Optional[str]:
    """The compiler the kernel build would use, as it looks it up."""
    override = os.environ.get("REPRO_KERNELS_CC", "").strip()
    if override:
        return override
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's sources (checkouts carry no git
    metadata, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int, env_seen: Dict[str, str], backends: Iterable[str],
               built_in_setup: bool,
               host_ms: Tuple[float, float]) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "c_compiler": c_compiler(),
        "kernel_backends_ran": sorted(backends),
        "kernel_built_in_setup": built_in_setup,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "host_loop_ms_before_after": list(host_ms),
        "git_rev": _git_rev(),
        "source_sha256": source_digest(),
        "seed": seed,
        "repro_env_seen": env_seen,
        "repro_env_used": {key: value for key, value in os.environ.items()
                           if key.startswith("REPRO_")},
    }
