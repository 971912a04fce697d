"""Pluggable kernel backends for the FASTOD hot path.

The four kernels every discovery run lives in — partition product
(CSR composite-key grouping), swap scan (one walk over τ_A, the rows
sorted by the left attribute, per (A, B) pair), split scan, and rank
re-encoding (densify) — are dispatched through this package to one of
two interchangeable backends:

* ``reference`` — the PR 1 vectorized NumPy kernels
  (:mod:`repro.kernels.reference`); always available, and the semantic
  definition of every kernel's output.
* ``compiled`` — C translations built on demand with the host
  toolchain and bound via ctypes (:mod:`repro.kernels.compiled`);
  byte-identical outputs, measured ~2-6x faster per kernel.  Falls
  back to ``reference`` cleanly when no compiler is available.

Selection order: an explicit ``activate()`` (what the executors use to
honor ``FastODConfig(kernel_backend=...)``) > the process default set
by :func:`set_default_backend` or the ``REPRO_KERNELS`` environment
variable (``auto``/``reference``/``compiled``) > ``auto``.  ``auto``
prefers the compiled backend when it builds, the reference backend
otherwise; asking for ``compiled`` explicitly when it cannot build
warns once and falls back.

Every dispatch is billed to the ``repro_kernel_calls_total`` /
``repro_kernel_seconds_total`` counter families (labels ``kernel``,
``backend``) of the process-wide :mod:`repro.obs.metrics` registry, so
``/metrics`` separates product from swap/split/densify time by
backend.  The swap kernel has two entry points under one label:
:func:`swap_flags` (per-class flags, for witnesses) and
:func:`swap_verdicts` (every (A, B) pair of one scan context in one
call, billed once).  The timing wrapper short-circuits when the
registry is disabled, keeping the observability overhead gate honest.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import thresholds
from repro.kernels.reference import ReferenceBackend
from repro.obs import metrics, trace

#: Names :func:`resolve_backend` accepts (``None``/"" mean "default").
BACKEND_NAMES = ("auto", "reference", "compiled")

_REFERENCE = ReferenceBackend()

#: process default backend, resolved lazily from ``REPRO_KERNELS``
_default = None
_default_lock = threading.Lock()

#: per-thread activation stack (executors activate around batches)
_active = threading.local()

_warned_fallback = False

_KERNEL_CALLS = metrics.counter(
    "repro_kernel_calls_total",
    "Vectorized kernel dispatches, by kernel and backend",
    ("kernel", "backend"))
_KERNEL_SECONDS = metrics.counter(
    "repro_kernel_seconds_total",
    "Wall-clock seconds inside vectorized kernels, by kernel and "
    "backend", ("kernel", "backend"))


def _compiled_or_fallback(explicit: bool):
    """The compiled backend, or the reference backend when it cannot
    build (warning once when the caller asked for it by name)."""
    global _warned_fallback
    from repro.kernels import compiled as compiled_module

    try:
        return compiled_module.CompiledBackend()
    except compiled_module.CompiledKernelsUnavailable as error:
        if explicit and not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                f"REPRO_KERNELS/kernel_backend requested the compiled "
                f"backend, but it is unavailable ({error}); falling "
                f"back to the reference backend", RuntimeWarning,
                stacklevel=3)
        return _REFERENCE


def resolve_backend(name: Optional[str]):
    """Resolve a backend name to a backend object.

    ``None``/"" defer to the process default; ``"auto"`` prefers
    compiled when it builds; ``"compiled"`` warns and falls back to
    reference when the build fails, so a pinned config never crashes a
    host without a toolchain.
    """
    if name is None or name == "":
        return default_backend()
    name = str(name).strip().lower()
    if name == "reference":
        return _REFERENCE
    if name == "compiled":
        return _compiled_or_fallback(explicit=True)
    if name == "auto":
        return _compiled_or_fallback(explicit=False)
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of "
        f"{BACKEND_NAMES}")


def default_backend():
    """The process default backend (``REPRO_KERNELS``, else auto)."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = resolve_backend(
                    os.environ.get("REPRO_KERNELS", "auto") or "auto")
    return _default


def set_default_backend(name: Optional[str]) -> str:
    """Set the process default backend by name (CLI/server boot);
    returns the resolved backend's name."""
    global _default
    backend = resolve_backend(name or "auto")
    with _default_lock:
        _default = backend
    return backend.name


def active_backend():
    """The backend the current thread dispatches to."""
    stack = getattr(_active, "stack", None)
    if stack:
        return stack[-1]
    return default_backend()


def active_backend_name() -> str:
    return active_backend().name


@contextmanager
def activate(backend):
    """Run a block under an explicit backend (object or name)."""
    if isinstance(backend, str) or backend is None:
        backend = resolve_backend(backend)
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


def compiled_available() -> bool:
    """True when the compiled backend builds and loads on this host."""
    from repro.kernels import compiled as compiled_module

    try:
        compiled_module.CompiledBackend()
        return True
    except compiled_module.CompiledKernelsUnavailable:
        return False


# ----------------------------------------------------------------------
# dispatchers (the only call sites the hot paths use)
# ----------------------------------------------------------------------
#: Per-kernel trace spans are recorded only where a dispatch is the
#: unit of work worth a timeline row — pool worker tasks enable this
#: around their handler.  The coordinator's serial hot loop keeps the
#: flag off (phases stay the span granularity there), which is what
#: holds the serial path inside the ≤5 % overhead budget.
_KERNEL_SPANS = False


def set_kernel_spans(flag: bool) -> None:
    """Enable/disable per-kernel leaf spans for this process (pool
    workers toggle it around each task)."""
    global _KERNEL_SPANS
    _KERNEL_SPANS = bool(flag)


def _dispatch(kernel: str, method: str, *args):
    """Run ``method`` on the active backend, billed to ``kernel``.

    Billing short-circuits when the registry is disabled; the leaf
    span is recorded only where :func:`set_kernel_spans` turned it on
    (pool worker tasks)."""
    backend = active_backend()
    if not metrics.enabled():
        return getattr(backend, method)(*args)
    started = time.perf_counter()
    out = getattr(backend, method)(*args)
    ended = time.perf_counter()
    _KERNEL_CALLS.inc(kernel=kernel, backend=backend.name)
    _KERNEL_SECONDS.inc(ended - started, kernel=kernel,
                        backend=backend.name)
    if _KERNEL_SPANS:
        trace.record_leaf("kernel", started, ended,
                          kernel=kernel, backend=backend.name)
    return out


def partition_product(probe: np.ndarray, rows_y: np.ndarray,
                      offsets_y: np.ndarray, class_ids_y: np.ndarray,
                      n_left: int) -> Tuple[np.ndarray, np.ndarray]:
    """Π_X · Π_Y refinement on the flat CSR layout (see
    :meth:`repro.kernels.reference.ReferenceBackend.partition_product`
    for the output contract)."""
    return _dispatch("product", "partition_product", probe, rows_y,
                     offsets_y, class_ids_y, n_left)


def swap_flags(col_a: np.ndarray, col_b: np.ndarray, rows: np.ndarray,
               offsets: np.ndarray, class_ids: np.ndarray,
               order_a: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-class swap flags for ``X: A ~ B`` over one context.

    ``order_a`` is τ_A, the relation's rows sorted by ``col_a``
    (:meth:`repro.relation.encoding.EncodedRelation.order` caches it
    per relation); a caller holding bare columns may omit it, and it is
    sorted here, once per call."""
    if order_a is None:
        order_a = np.argsort(col_a)
    return _dispatch("swap", "swap_flags", col_a, col_b, rows, offsets,
                     class_ids, order_a)


def swap_verdicts(columns: Sequence[np.ndarray],
                  orders: Mapping[int, np.ndarray], rows: np.ndarray,
                  offsets: np.ndarray, pair_a: Sequence[int],
                  pair_b: Sequence[int],
                  negate: Sequence[bool]) -> np.ndarray:
    """One bool per (A, B) pair over one context: does any class
    contain a swap w.r.t. ``X: A ~ B``?

    ``columns`` are the relation's rank columns, ``orders`` maps each
    A of ``pair_a`` to its τ_A, and ``negate[p]`` reverses B's order
    (the ``swap_desc`` scans).  The context's row -> class table is
    built once, and each pair's walk over τ_A stops at its first swap
    (see :meth:`repro.kernels.reference.ReferenceBackend.swap_verdicts`
    for the contract).  The call is billed once, whatever the number
    of pairs."""
    return _dispatch("swap", "swap_verdicts", columns, orders, rows,
                     offsets, pair_a, pair_b, negate)


def split_mismatch(column: np.ndarray, rows: np.ndarray,
                   offsets: np.ndarray,
                   class_sizes: np.ndarray) -> np.ndarray:
    """Per-grouped-row constancy mismatch mask for ``X: [] ↦ A``."""
    return _dispatch("split", "split_mismatch", column, rows, offsets,
                     class_sizes)


def densify(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rank re-encoding: sorted distinct values + dense inverse
    (byte-identical to ``np.unique(values, return_inverse=True)``)."""
    return _dispatch("densify", "densify", values)


__all__ = [
    "BACKEND_NAMES",
    "activate",
    "active_backend",
    "active_backend_name",
    "compiled_available",
    "default_backend",
    "densify",
    "partition_product",
    "resolve_backend",
    "set_default_backend",
    "set_kernel_spans",
    "split_mismatch",
    "swap_flags",
    "swap_verdicts",
    "thresholds",
]
