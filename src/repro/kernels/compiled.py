"""The compiled (C) kernel backend: build on demand, bind via ctypes.

Numba and Cython are optional heavyweight dependencies this library
deliberately avoids; a plain C translation unit compiled with whatever
``cc`` the host provides covers the same ground with zero install
surface.  ``_kernels.c`` is compiled once into a content-addressed
shared library under a user cache directory and loaded through
``ctypes`` (no CPython API — the binary is interpreter-agnostic).

Anything going wrong — no compiler, a failing compile, an unwritable
cache, a broken library — raises :class:`CompiledKernelsUnavailable`,
which the backend resolver in :mod:`repro.kernels` turns into a clean
fallback to the reference backend.  Nothing in this module is imported
at package-import time.

Environment knobs:

* ``REPRO_KERNELS_CC`` — compiler executable (default: first of
  ``cc``/``gcc``/``clang`` on ``PATH``).  Pointing it at a bogus
  binary is the supported way to force the fallback path in tests.
* ``REPRO_KERNELS_CACHE`` — cache directory for built libraries
  (default ``$XDG_CACHE_HOME/repro-kernels`` or
  ``~/.cache/repro-kernels``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.reference import (Parent, check_swap_pairs,
                                     product_bounds,
                                     product_contract_error,
                                     swap_contract_error)

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-std=c11", "-fno-math-errno")

#: memoized library handle; ``False`` marks a failed attempt so a
#: process never retries a broken toolchain per call.
_LIB: Optional[object] = None


class CompiledKernelsUnavailable(RuntimeError):
    """The compiled backend cannot be built or loaded on this host."""


def _compiler() -> str:
    cc = os.environ.get("REPRO_KERNELS_CC", "").strip()
    if cc:
        return cc
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    raise CompiledKernelsUnavailable("no C compiler on PATH")


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE", "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro-kernels"


def build_library() -> Path:
    """Compile ``_kernels.c`` into the cache (idempotent).

    The library file name hashes the source text plus the compiler and
    flags, so editing the source or switching toolchains rebuilds
    instead of loading a stale binary; the compile lands in a temp
    file renamed into place, so concurrent builders race benignly.
    """
    try:
        source = _SOURCE.read_text()
    except OSError as error:
        raise CompiledKernelsUnavailable(
            f"kernel source unreadable: {error}") from error
    cc = _compiler()
    digest = hashlib.sha256(
        "\x00".join((source, cc, " ".join(_CFLAGS))).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"repro_kernels_{digest}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
    except OSError as error:
        raise CompiledKernelsUnavailable(
            f"kernel cache unwritable: {error}") from error
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as error:
        os.unlink(tmp)
        raise CompiledKernelsUnavailable(
            f"compiler failed to run: {error}") from error
    if proc.returncode != 0:
        os.unlink(tmp)
        raise CompiledKernelsUnavailable(
            f"kernel compile failed ({cc}):\n{proc.stderr.strip()}")
    os.replace(tmp, target)
    return target


def _load() -> ctypes.CDLL:
    global _LIB
    if _LIB is False:
        raise CompiledKernelsUnavailable(
            "compiled kernels already failed to load in this process")
    if _LIB is not None:
        return _LIB
    try:
        lib = ctypes.CDLL(str(build_library()))
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.repro_products.restype = i64
        lib.repro_products.argtypes = [ptr, i64, ptr, i64, i64, ptr, i64,
                                       ptr, i64, ptr]
        lib.repro_swap_verdicts.restype = i64
        lib.repro_swap_verdicts.argtypes = [ptr, i64, i64, ptr, i64, ptr,
                                            i64, i64, ptr, ptr]
        lib.repro_split_mismatch.restype = None
        lib.repro_split_mismatch.argtypes = [ptr, ptr, ptr, i64, ptr]
        lib.repro_densify.restype = i64
        lib.repro_densify.argtypes = [ptr, i64, ptr, ptr]
        lib.repro_rank_order.restype = i64
        lib.repro_rank_order.argtypes = [ptr, i64, ptr]
    except (OSError, AttributeError, CompiledKernelsUnavailable) as error:
        _LIB = False
        if isinstance(error, CompiledKernelsUnavailable):
            raise
        raise CompiledKernelsUnavailable(
            f"compiled kernel library unusable: {error}") from error
    _LIB = lib
    return lib


def _c(array: np.ndarray) -> np.ndarray:
    """A C-contiguous int64 view (copying only if needed)."""
    return np.ascontiguousarray(array, dtype=np.int64)


#: id(array) -> (weak reference, data address) of the C-contiguous
#: int64 arrays swap_verdicts has read: a relation's rank columns and
#: τ_A orders recur in every scan call of its lifetime, and reading an
#: address through ``ndarray.ctypes`` costs more than a swap walk over
#: a small context.  An entry serves only while its weak reference
#: still resolves to the very array asked about.
_ADDRESSES: Dict[int, Tuple[weakref.ref, int]] = {}
_MAX_ADDRESSES = 512


def _address(array: np.ndarray, held: List[np.ndarray]) -> int:
    """The data address of ``array`` as contiguous int64; a converted
    copy is appended to ``held``, which must outlive the C call."""
    entry = _ADDRESSES.get(id(array))
    if entry is not None and entry[0]() is array:
        return entry[1]
    converted = _c(array)
    address = converted.ctypes.data
    if converted is array:
        if len(_ADDRESSES) >= _MAX_ADDRESSES:
            _ADDRESSES.clear()
        _ADDRESSES[id(array)] = (weakref.ref(array), address)
    else:
        held.append(converted)
    return address


class CompiledBackend:
    """ctypes bindings satisfying the reference backend's contract
    (see :class:`repro.kernels.reference.ReferenceBackend` for the
    per-kernel output specifications the parity suite enforces)."""

    name = "compiled"

    def __init__(self):
        self._lib = _load()

    def partition_products(self, parents: Sequence[Parent],
                           tasks: Sequence, n_rows: int
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        tasks, bounds = product_bounds(parents, tasks)
        tasks = _c(tasks)
        # one (rows, len(rows), offsets, len(offsets) - 1) record per
        # parent; the C side checks every record before its first write
        held = [(_c(rows), _c(offsets)) for rows, offsets in parents]
        table = np.array(
            [(rows.ctypes.data, len(rows), offsets.ctypes.data,
              len(offsets) - 1) for rows, offsets in held],
            dtype=np.int64).reshape(-1, 4)
        # outputs are packed, so trimming them is a view, not a copy;
        # only the written pages of the capacity become resident
        rows_cap = int(bounds.sum())
        offsets_cap = rows_cap // 2 + len(tasks)
        out_rows = np.empty(max(rows_cap, 1), dtype=np.int64)
        out_offsets = np.empty(max(offsets_cap, 1), dtype=np.int64)
        spans = np.empty((len(tasks), 4), dtype=np.int64)
        code = self._lib.repro_products(
            table.ctypes.data, len(parents), tasks.ctypes.data,
            len(tasks), int(n_rows), out_rows.ctypes.data, rows_cap,
            out_offsets.ctypes.data, offsets_cap, spans.ctypes.data)
        if code < 0:
            raise product_contract_error(code)
        return (out_rows[:int(spans[:, 1].sum())],
                out_offsets[:int(spans[:, 3].sum()) + len(tasks)], spans)

    def swap_verdicts(self, columns: Sequence[np.ndarray],
                      orders: Mapping[int, np.ndarray], rows: np.ndarray,
                      offsets: np.ndarray, pair_a: Sequence[int],
                      pair_b: Sequence[int], negate: Sequence[bool],
                      limit: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        n = check_swap_pairs(columns, orders, pair_a, pair_b, negate,
                             limit)
        n_classes = len(offsets) - 1
        if n_classes < 0:
            raise swap_contract_error(-3)
        n_pairs = len(pair_a)
        swapped = np.zeros(max(n_pairs, 1), dtype=np.uint8)
        stops = np.full((n_pairs, min(limit, n_classes), 2), -1,
                        dtype=np.int64)
        # one address per referenced column and τ_A; the C side reads
        # one (col_a, col_b, order_a, negate) record per pair
        held: List[np.ndarray] = []
        columns_at = {i: _address(columns[i], held)
                      for i in {*pair_a, *pair_b}}
        orders_at = {i: _address(orders[i], held) for i in set(pair_a)}
        table = np.array(
            [(columns_at[a], columns_at[b], orders_at[a], 1 if neg else 0)
             for a, b, neg in zip(pair_a, pair_b, negate)],
            dtype=np.uint64)
        rows = _c(rows)
        offsets = _c(offsets)
        found = self._lib.repro_swap_verdicts(
            table.ctypes.data, n_pairs, n, rows.ctypes.data, len(rows),
            offsets.ctypes.data, n_classes, stops.shape[1],
            stops.ctypes.data, swapped.ctypes.data)
        if found < 0:
            raise swap_contract_error(found)
        return swapped[:n_pairs].view(bool), stops

    def split_mismatch(self, column: np.ndarray, rows: np.ndarray,
                       offsets: np.ndarray,
                       class_sizes: np.ndarray) -> np.ndarray:
        n = len(rows)
        mask = np.empty(max(n, 1), dtype=np.uint8)
        if n == 0:
            return mask[:0].view(bool)
        column = _c(column)
        rows = _c(rows)
        offsets = _c(offsets)
        self._lib.repro_split_mismatch(
            column.ctypes.data, rows.ctypes.data, offsets.ctypes.data,
            len(offsets) - 1, mask.ctypes.data)
        return mask[:n].view(bool)

    def rank_order(self, ranks: np.ndarray) -> np.ndarray:
        n = len(ranks)
        ranks = _c(ranks)
        order = np.empty(n, dtype=np.int64)
        if n and self._lib.repro_rank_order(
                ranks.ctypes.data, n, order.ctypes.data) < 0:
            # negative ranks or a range too sparse to table (or a
            # failed scratch allocation): the same rule as densify
            return np.argsort(ranks, kind="stable").astype(np.int64,
                                                           copy=False)
        return order

    def densify(self, values: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(values)
        if n == 0:
            return np.unique(values, return_inverse=True)
        values = _c(values)
        survivors = np.empty(n, dtype=np.int64)
        dense = np.empty(n, dtype=np.int64)
        k = self._lib.repro_densify(
            values.ctypes.data, n, survivors.ctypes.data,
            dense.ctypes.data)
        if k < 0:
            # negative ranks (-1) or a value range too sparse to table
            # (-2) or scratch allocation failure (-3): the reference
            # path is both correct and, for these shapes, competitive
            survivors, dense = np.unique(values, return_inverse=True)
            return survivors, dense.astype(np.int64, copy=False)
        return survivors[:k].copy(), dense
