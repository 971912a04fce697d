"""The per-cell rank encoder: the reference the distinct-first encoder
in :mod:`repro.relation.encoding` is tested against.

It keys every cell through :func:`~repro.relation.encoding.sort_key`,
in column order, and ranks the cells by their keys — the encoding
stated directly, one ``sort_key`` call per cell.  The library keys
each distinct ``(type, value)`` pair once (or ranks an all-integer
column through ``np.unique``), and must build the same ranks, the
same ``ColumnKeys`` table and the same ``DataError`` as this module.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Sequence, Tuple

import numpy as np

from repro.relation.encoding import (
    ColumnExtension,
    ColumnKeys,
    _sorted_distinct,
    sort_key,
)


def from_values(values: Sequence[Any]) -> Tuple[np.ndarray, ColumnKeys]:
    """Encode a column from scratch, keying every cell."""
    keyed = [sort_key(v) for v in values]
    order = _sorted_distinct(keyed)
    gid_of = {key: gid for gid, key in enumerate(order)}
    ranks = np.fromiter((gid_of[key] for key in keyed),
                        dtype=np.int64, count=len(keyed))
    return ranks, ColumnKeys(np.arange(len(order), dtype=np.int64),
                             gid_of, order)


def extend(column_keys: ColumnKeys, values: Sequence[Any]
           ) -> Tuple[ColumnKeys, ColumnExtension]:
    """:meth:`ColumnKeys.extend`, keying every cell of the batch."""
    keyed = [sort_key(v) for v in values]
    gid_of, key_of = column_keys._gid_of, column_keys._key_of
    for key in keyed:
        if key not in gid_of:
            gid_of[key] = len(key_of)
            key_of.append(key)
    batch_gids = np.fromiter(map(gid_of.__getitem__, keyed),
                             dtype=np.int64, count=len(keyed))
    batch_ranks = column_keys._ranks_of_gids(batch_gids)
    unheld = [key for key, rank in zip(keyed, batch_ranks.tolist())
              if rank < 0]
    old_distinct = len(column_keys.gid_sorted)
    if not unheld:
        return column_keys, ColumnExtension(
            np.arange(old_distinct, dtype=np.int64), batch_ranks)
    fresh = _sorted_distinct(unheld)
    try:
        positions = np.fromiter(
            (bisect_left(column_keys.gid_sorted, key,
                         key=key_of.__getitem__)
             for key in fresh), dtype=np.int64, count=len(fresh))
    except TypeError:
        return column_keys._extend_incomparable(fresh, batch_gids)
    fresh_ranks = positions + np.arange(len(fresh))
    slots = np.ones(old_distinct + len(fresh), dtype=bool)
    slots[fresh_ranks] = False
    remap = np.flatnonzero(slots)
    rank_of_fresh = dict(zip(fresh, fresh_ranks.tolist()))
    held = batch_ranks >= 0
    batch_ranks[held] = remap[batch_ranks[held]]
    batch_ranks[~held] = [rank_of_fresh[key] for key in unheld]
    gid_sorted = np.insert(column_keys.gid_sorted, positions, np.fromiter(
        map(gid_of.__getitem__, fresh), dtype=np.int64, count=len(fresh)))
    return (ColumnKeys(gid_sorted, gid_of, key_of),
            ColumnExtension(remap, batch_ranks))
