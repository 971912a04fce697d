"""Shared-memory publication of ``int64`` arrays for the worker pool.

The parallel engine ships its bulk inputs — the encoded relation's rank
columns and the flat CSR ``rows``/``offsets`` partition arrays — to
workers through :mod:`multiprocessing.shared_memory` instead of task
pickling: the coordinator copies each array into a named segment once,
and every worker maps the segment and reads zero-copy NumPy views.
Only small descriptors (segment name + per-array offsets) travel on the
task queue.

A block holds any number of named ``int64`` arrays back to back.  The
*layout* is a plain ``{key: (offset_items, length)}`` dict — keys are
whatever hashables the caller uses (attribute indices, ``(mask, "r")``
tuples, ...); task payloads carry a block's name with the offsets
their tasks read.

Attaching registers the segment with the process-local
``resource_tracker``, which on worker exit would unlink segments the
worker does not own (bpo-38119); :func:`attach` therefore unregisters
right after attaching.  Ownership stays with the coordinator: blocks
are unlinked exactly once, by :meth:`SharedArrayBlock.close_and_unlink`
(or the pool's shutdown/finalizer sweep).
"""

from __future__ import annotations

import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Hashable, Tuple

import numpy as np

from repro import faults

#: Serializes the registration-suppression window of :func:`attach`
#: against concurrent segment creation (e.g. a GC finalizer unlinking
#: on another thread while a block is being published).
_TRACKER_LOCK = threading.Lock()

#: Bytes per item; every published array is ``int64``.
ITEM_BYTES = np.dtype(np.int64).itemsize

def attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Attaching must not register the segment with the process-local
    ``resource_tracker``: a spawned worker's tracker would unlink the
    segment when the worker exits (bpo-38119), and under fork an
    unregister from the shared tracker races the owner's own
    registration.  Registration is suppressed for the duration of the
    constructor instead; the creating coordinator remains the only
    registered owner.
    """
    with _TRACKER_LOCK:
        register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


def unlink_by_name(name: str) -> None:
    """Best-effort unlink of a segment by name (crash-path cleanup).

    The unlink's own ``resource_tracker`` unregister balances the
    registration made when the segment was created."""
    try:
        segment = attach(name)
    except FileNotFoundError:
        return
    try:
        segment.close()
    except BufferError:  # pragma: no cover
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover
        pass


class SharedArrayBlock:
    """Owner handle for one segment holding named ``int64`` arrays.

    Build with :meth:`publish` (copy existing arrays in).  The owner
    must eventually call :meth:`close_and_unlink`;
    :class:`repro.parallel.pool.WorkerPool` tracks live blocks and
    sweeps leftovers on shutdown.
    """

    __slots__ = ("name", "layout", "_segment")

    def __init__(self, layout: Dict[Hashable, Tuple[int, int]],
                 total_items: int):
        with _TRACKER_LOCK:      # vs attach()'s suppression window
            self._segment = shared_memory.SharedMemory(
                create=True, size=max(total_items * ITEM_BYTES, 1))
        self.name = self._segment.name
        self.layout = layout

    @classmethod
    def publish(cls, arrays: Dict[Hashable, np.ndarray]
                ) -> "SharedArrayBlock":
        """Copy ``arrays`` into a fresh segment (one memcpy each).

        Creation takes the tracker lock too, so a concurrent
        :func:`attach` cannot swallow this segment's registration."""
        layout: Dict[Hashable, Tuple[int, int]] = {}
        total = 0
        for key, array in arrays.items():
            layout[key] = (total, len(array))
            total += len(array)
        block = cls(layout, total)
        for key, array in arrays.items():
            if len(array):
                view = block.array(key)
                view[:] = array
                del view
        return block

    @property
    def nbytes(self) -> int:
        """Payload bytes laid out in this segment (the currency of the
        pool's shm-published byte metrics)."""
        return sum(length
                   for _, length in self.layout.values()) * ITEM_BYTES

    def array(self, key: Hashable) -> np.ndarray:
        """A view over one named array (owner side)."""
        offset, length = self.layout[key]
        return self.raw(offset, length)

    def raw(self, offset_items: int, length: int) -> np.ndarray:
        return np.frombuffer(self._segment.buf, dtype=np.int64,
                             offset=offset_items * ITEM_BYTES,
                             count=length)

    def close_and_unlink(self) -> None:
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        try:
            segment.close()
        except BufferError:  # a view outlived us; GC releases the map
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


class BlockReader:
    """Worker-side view factory over one attached segment."""

    __slots__ = ("name", "_segment")

    def __init__(self, name: str):
        # chaos hook: a reader that cannot map its segment (unlinked
        # under it, tmpfs exhausted) must surface as a typed dispatch
        # error the executor's recovery path can retry
        faults.maybe_raise("shm.attach",
                           f"cannot attach shared segment {name!r}")
        self.name = name
        self._segment = attach(name)

    def array(self, layout: Dict[Hashable, Tuple[int, int]],
              key: Hashable) -> np.ndarray:
        offset, length = layout[key]
        return self.raw(offset, length)

    def raw(self, offset_items: int, length: int) -> np.ndarray:
        return np.frombuffer(self._segment.buf, dtype=np.int64,
                             offset=offset_items * ITEM_BYTES,
                             count=length)

    def close(self) -> None:
        try:
            self._segment.close()
        except BufferError:  # live views keep the mapping; GC finishes
            pass
