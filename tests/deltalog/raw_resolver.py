"""The raw-value delta resolver: the reference the rank-space resolver
in :mod:`repro.deltalog.model` is tested against.

It states the resolution rules directly on raw rows — every live row
is walked in Python, and rows match by Python equality plus which of
their cells are booleans (``True == 1`` in Python, but the encoder
ranks booleans apart from numbers).  For the cells the library
accepts, that is the encoder's key equality, so both resolvers must
pick the same occurrences.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import DataError


def bool_cells(row: tuple) -> tuple:
    """Which cells of ``row`` are booleans: the part of a row's value
    identity Python equality drops."""
    return tuple(isinstance(value, (bool, np.bool_)) for value in row)


def resolve(rows: Sequence[tuple], arity: int, batches: Sequence
            ) -> Iterator[Tuple[List[int], List[tuple]]]:
    """Per batch, the sorted positions its deletes remove and its
    surviving inserts; positions number ``rows``, then every surviving
    insert in the order it lands."""
    targets = {row for batch in batches
               for weight, row in batch.ops if weight < 0}
    live: Dict[tuple, Deque[int]] = {}
    for position, row in enumerate(rows):
        if row in targets:
            live.setdefault((row, bool_cells(row)),
                            deque()).append(position)
    n_positions = len(rows)
    for batch in batches:
        deletes: List[int] = []
        pending: List[tuple] = []
        for weight, row in batch.ops:
            if len(row) != arity:
                raise DataError(f"delta row {row!r} has {len(row)} values")
            if weight > 0:
                pending.append(row)
                continue
            bools = bool_cells(row)
            positions = live.get((row, bools))
            if positions:
                deletes.append(positions.popleft())
                continue
            for i in range(len(pending) - 1, -1, -1):
                if pending[i] == row and bool_cells(pending[i]) == bools:
                    del pending[i]
                    break
            else:
                raise DataError(f"delta deletes row {row!r}, which has "
                                "no remaining occurrence")
        for offset, row in enumerate(pending):
            if row in targets:
                live.setdefault((row, bool_cells(row)),
                                deque()).append(n_positions + offset)
        n_positions += len(pending)
        deletes.sort()
        yield deletes, pending


def replay(rows: Sequence[tuple], arity: int, batches: Sequence
           ) -> List[tuple]:
    """The rows after every batch, in order."""
    dead = set()
    inserted: List[tuple] = []
    for deletes, inserts in resolve(rows, arity, batches):
        dead.update(deletes)
        inserted.extend(inserts)
    return [row for position, row in enumerate([*rows, *inserted])
            if position not in dead]


def typed(rows) -> List[tuple]:
    """``rows`` with each cell's type beside it, so ``1`` and ``1.0``
    (equal in Python) compare unequal."""
    return [tuple((type(value), value) for value in row) for row in rows]
