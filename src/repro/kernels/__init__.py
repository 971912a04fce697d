"""Pluggable kernel backends for the FASTOD hot path.

The kernels every discovery run lives in — partition products (one
lattice level per call), swap scan (one walk over τ_A, the rows sorted
by the left attribute, per (A, B) pair), split scan, rank re-encoding
(densify) and the stable rank order that builds level 1 and τ_A — are
dispatched through this package to one of two interchangeable
backends:

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
``/metrics`` separates product from swap/split/densify/order time by
backend.  :func:`partition_products` builds a whole lattice level and
is billed once per call, and so is :func:`swap_verdicts`, which
answers every (A, B) pair of one scan context and reports where each
pair's walk stopped.  The timing wrapper short-circuits when the
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
from repro.obs import metrics

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
def _dispatch(kernel: str, method: str, *args):
    """Run ``method`` on the active backend, billed to ``kernel``
    (billing short-circuits when the registry is disabled)."""
    backend = active_backend()
    if not metrics.enabled():
        return getattr(backend, method)(*args)
    started = time.perf_counter()
    out = getattr(backend, method)(*args)
    _KERNEL_CALLS.inc(kernel=kernel, backend=backend.name)
    _KERNEL_SECONDS.inc(time.perf_counter() - started, kernel=kernel,
                        backend=backend.name)
    return out


def partition_products(parents: Sequence[Tuple[np.ndarray, np.ndarray]],
                       tasks: Sequence[Tuple[int, int]], n_rows: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Π_left · Π_right`` for every ``(left, right)`` index pair of
    ``tasks`` over ``parents``, the flat ``(rows, offsets)`` of
    partitions of one ``n_rows``-row relation: one lattice level in
    one call, billed once.  Returns ``(rows, offsets, spans)``, the
    products packed in task order; ``spans[t]`` is task ``t``'s
    ``(rows start, rows length, offsets start, class count)``.  Group
    the tasks by left parent: one row -> class probe serves each run
    of tasks sharing one (see
    :meth:`repro.kernels.reference.ReferenceBackend.partition_products`
    for the contract)."""
    return _dispatch("product", "partition_products", parents, tasks,
                     n_rows)


def partition_product(probe: np.ndarray, rows_y: np.ndarray,
                      offsets_y: np.ndarray, class_ids_y=None,
                      n_left: Optional[int] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """One product as a one-task :func:`partition_products` batch.

    Π_X comes as its row -> class probe (-1 outside every class, class
    ids below ``n_left``) and is regrouped into its flat layout here;
    ``class_ids_y`` is ignored.  Kept for the end-to-end benchmark's
    probe table, which wraps this name;
    :meth:`repro.partitions.partition.StrippedPartition.product` is
    the partition-level view."""
    probe = np.asarray(probe, dtype=np.int64)
    grouped = np.flatnonzero(probe >= 0)
    classes = probe[grouped]
    if n_left is None:
        n_left = int(classes.max()) + 1 if len(classes) else 0
    if len(classes) and classes.max() >= n_left:
        raise ValueError("product probe classes must lie in "
                         "[-1, n_left)")
    rows_x = grouped[np.argsort(classes, kind="stable")]
    offsets_x = np.concatenate(
        ([0], np.cumsum(np.bincount(classes, minlength=n_left))))
    rows, offsets, _ = partition_products(
        [(rows_x, offsets_x), (rows_y, offsets_y)], [(0, 1)], len(probe))
    return rows, offsets


def rank_order(ranks: np.ndarray) -> np.ndarray:
    """Every row index sorted by rank, ties in row order: byte-identical
    to ``np.argsort(ranks, kind="stable")``, and a valid τ_A.  Builds
    level 1's partitions and the relation's τ_A orders."""
    return _dispatch("order", "rank_order", ranks)


def swap_verdicts(columns: Sequence[np.ndarray],
                  orders: Mapping[int, np.ndarray], rows: np.ndarray,
                  offsets: np.ndarray, pair_a: Sequence[int],
                  pair_b: Sequence[int], negate: Sequence[bool],
                  limit: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """``(swapped, stops)`` for every (A, B) pair over one context.

    ``swapped[p]``: does any class contain a swap w.r.t. ``X: A ~ B``?
    ``columns`` are the relation's rank columns, ``orders`` maps each
    A of ``pair_a`` to its τ_A, and ``negate[p]`` reverses B's order
    (the ``swap_desc`` scans).  The context's row -> class table is
    built once, and each pair's walk over τ_A ends once ``limit``
    classes have stopped: ``stops[p]`` holds those ``(class, row)``
    stops in walk order, ``-1`` past the last, a stop row being the
    first row of its class whose B lies below the largest B of the
    class's smaller A values (see
    :meth:`repro.kernels.reference.ReferenceBackend.swap_verdicts`
    for the contract).  Verdicts take ``limit=1``.  The call is billed
    once, whatever the number of pairs."""
    return _dispatch("swap", "swap_verdicts", columns, orders, rows,
                     offsets, pair_a, pair_b, negate, limit)


def swap_flags(col_a: np.ndarray, col_b: np.ndarray, rows: np.ndarray,
               offsets: np.ndarray, class_ids: np.ndarray,
               order_a: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-class swap flags for ``X: A ~ B`` over one context: a
    one-pair :func:`swap_verdicts` walk with a ``limit`` of the class
    count (``class_ids`` is ignored; ``order_a`` is sorted here when
    omitted).  Nothing in the library calls it: it is kept only for
    the end-to-end benchmark's probe table, which wraps this name."""
    if order_a is None:
        order_a = np.argsort(col_a)
    flags = np.zeros(max(len(offsets) - 1, 0), dtype=bool)
    _, stops = swap_verdicts((col_a, col_b), {0: order_a}, rows,
                             offsets, (0,), (1,), (False,),
                             max(len(flags), 1))
    flagged = stops[0, :, 0]
    flags[flagged[flagged >= 0]] = True
    return flags


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
    "partition_products",
    "rank_order",
    "resolve_backend",
    "set_default_backend",
    "split_mismatch",
    "swap_flags",
    "swap_verdicts",
    "thresholds",
]
