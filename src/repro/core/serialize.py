"""JSON (de)serialization for dependencies and discovery results.

A discovery run over a big table is worth caching; this module renders
ODs and :class:`DiscoveryResult` objects to plain JSON and back, using
the same textual dependency syntax as :mod:`repro.core.parser`, so
serialized files stay human-readable and hand-editable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.od import (
    CanonicalFD,
    CanonicalOCD,
    ListOD,
    OrderCompatibility,
)
from repro.core.parser import parse
from repro.core.results import DiscoveryResult, LevelStats
from repro.errors import DependencyError

Dependency = Union[CanonicalFD, CanonicalOCD, ListOD, OrderCompatibility]

_FORMAT_VERSION = 1


def dependency_to_text(dependency: Dependency) -> str:
    """Serialize one dependency (its ``str`` form round-trips)."""
    return str(dependency)


def dependency_from_text(text: str) -> Dependency:
    """Inverse of :func:`dependency_to_text`."""
    return parse(text)


def result_to_dict(result: DiscoveryResult) -> Dict:
    """A JSON-ready dictionary with everything needed to reload."""
    payload = result.to_dict()
    payload["format_version"] = _FORMAT_VERSION
    payload["config"] = dict(result.config)
    return payload


def result_from_dict(payload: Dict) -> DiscoveryResult:
    """Rebuild a :class:`DiscoveryResult` from :func:`result_to_dict`.

    Raises :class:`DependencyError` for unknown format versions or
    dependency lines of the wrong kind.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DependencyError(
            f"unsupported result format version {version!r}")
    fds: List[CanonicalFD] = []
    for line in payload.get("fds", []):
        dependency = parse(line)
        if not isinstance(dependency, CanonicalFD):
            raise DependencyError(f"expected a canonical FD, got {line!r}")
        fds.append(dependency)
    ocds: List[CanonicalOCD] = []
    for line in payload.get("ocds", []):
        dependency = parse(line)
        if not isinstance(dependency, CanonicalOCD):
            raise DependencyError(
                f"expected a canonical OCD, got {line!r}")
        ocds.append(dependency)
    result = DiscoveryResult(
        algorithm=payload.get("algorithm", "unknown"),
        attribute_names=tuple(payload.get("attributes", ())),
        n_rows=int(payload.get("n_rows", 0)),
        fds=fds,
        ocds=ocds,
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        timed_out=bool(payload.get("timed_out", False)),
        minimal=bool(payload.get("minimal", True)),
        config=dict(payload.get("config", {})),
    )
    executor_stats = payload.get("executor")
    if executor_stats is not None:
        result.executor_stats = dict(executor_stats)
    timings = payload.get("timings")
    if timings is not None:
        result.timings = dict(timings)
    for level in payload.get("levels", []):
        result.level_stats.append(LevelStats(
            level=int(level["level"]),
            n_nodes=int(level.get("nodes", 0)),
            n_fds_found=int(level.get("fds", 0)),
            n_ocds_found=int(level.get("ocds", 0)),
            seconds=float(level.get("seconds", 0.0)),
            peak_partition_bytes=int(
                level.get("peak_partition_bytes", 0)),
        ))
    return result


def save_result(result: DiscoveryResult,
                path: Union[str, Path]) -> None:
    """Write a discovery result as indented JSON."""
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2), encoding="utf-8")


def load_result(path: Union[str, Path]) -> DiscoveryResult:
    """Load a result previously written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return result_from_dict(payload)
