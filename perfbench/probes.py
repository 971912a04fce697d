"""Span probes: time calls into each layer's public functions from
outside the program.

A :class:`Tracer` keeps spans in memory, one stack per thread, and
folds each finished span into per-name totals: inclusive seconds and
self seconds (the span's duration minus the part its child
spans cover).  :func:`install` swaps the layer entry points listed in
:func:`probe_table` for timing wrappers and returns a function that
puts the originals back, so a traced op and an untraced op run the
same code apart from the wrappers.

The layer of a span is the first dotted component of its name.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: the layers the benchmark attributes self time to, in report order
LAYERS = ("cli", "relation", "kernels", "partitions", "core", "engine",
          "parallel", "incremental", "deltalog", "server")


class Tracer:
    """Per-name span totals, safe to feed from several threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: free-form counters bumped by probe notes
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.  A call made while a span of
        the same name is already open on this thread is not recorded
        again (executors that delegate to an inner executor)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.total_s[name] += elapsed
                    tracer.self_s[name] += elapsed - frame[1]

        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def to_dict(self) -> Dict[str, Dict]:
        return {"total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def absorb(self, payload: Dict[str, Dict]) -> None:
        """Add a :meth:`to_dict` export (from a child process)."""
        with self._lock:
            for field in ("total_s", "self_s", "counts"):
                mine = getattr(self, field)
                for name, value in payload.get(field, {}).items():
                    mine[name] += value


def _note_swap(tracer: Tracer, args, kwargs) -> None:
    """Classify one swap call by the mean class size of its context,
    read from the call's inputs (``rows``, ``offsets``)."""
    from repro.kernels import thresholds

    rows = args[2] if len(args) > 2 else kwargs["rows"]
    offsets = args[3] if len(args) > 3 else kwargs["offsets"]
    n_classes = len(offsets) - 1
    tracer.count("kernels.swap.calls")
    if (n_classes > 0 and len(rows)
            > n_classes * thresholds.SWAP_MEAN_CLASS_CROSSOVER):
        tracer.count("kernels.swap.coarse")


def probe_table() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, note)`` for every probed entry
    point.  Functions imported by name into another module are probed
    where the caller looks them up."""
    import repro.cli as cli
    import repro.core.validation as validation
    import repro.kernels as kernels
    import repro.server.catalog as catalog_module
    import repro.server.http as http_module
    import repro.server.jobs as jobs_module
    from repro.core.results import DiscoveryResult
    from repro.deltalog import DeltaBatch, DeltaLog
    from repro.engine.executors import PoolExecutor, SerialExecutor
    from repro.engine.planner import LatticePlanner
    from repro.incremental import IncrementalFastOD
    from repro.parallel.pool import WorkerPool
    from repro.partitions.partition import StrippedPartition
    from repro.relation.table import Relation
    from repro.server.catalog import DatasetCatalog
    from repro.server.store import ResultStore

    # the package re-exports the function under the submodule's name
    fingerprint_module = importlib.import_module(
        "repro.relation.fingerprint")
    table = [
        (cli, "read_csv", "relation.read_csv", None),
        (Relation, "encode", "relation.encode", None),
        (kernels, "partition_product", "kernels.product", None),
        (kernels, "swap_flags", "kernels.swap", _note_swap),
        (kernels, "split_mismatch", "kernels.split", None),
        (kernels, "densify", "kernels.densify", None),
        (StrippedPartition, "product", "partitions.product", None),
        (validation, "scan_verdict", "core.scan_verdict", None),
        (DiscoveryResult, "to_dict", "core.serialize", None),
        (LatticePlanner, "run", "engine.planner", None),
        (IncrementalFastOD, "__init__", "incremental.bootstrap", None),
        (IncrementalFastOD, "apply_delta", "incremental.apply_delta",
         None),
        (DeltaBatch, "apply_to", "deltalog.preview", None),
        (DeltaLog, "append", "deltalog.append", None),
        (ResultStore, "put", "server.store.put", None),
        (DatasetCatalog, "rekey_after_delta", "server.catalog.rekey",
         None),
    ]
    for module in (fingerprint_module, jobs_module, catalog_module,
                   http_module):
        table.append((module, "fingerprint", "relation.fingerprint", None))
    for executor in (SerialExecutor, PoolExecutor):
        for method in ("run_products", "run_scans", "run_validations",
                       "scan_partition"):
            table.append((executor, method, "engine.executor", None))
    for method in ("run_products", "run_scans", "run_validations",
                   "run_class_scan"):
        table.append((WorkerPool, method, "parallel.dispatch", None))
    return table


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every probed entry point; returns the undo function."""
    originals = []
    for owner, attribute, name, note in probe_table():
        original = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, note))

    def uninstall() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return uninstall
