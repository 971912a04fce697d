"""In-memory relation instances (tables).

A :class:`Relation` is a small, immutable columnar table: the ``r`` of
the paper.  It is deliberately simple — the heavy lifting happens on the
rank-encoded form (:class:`repro.relation.encoding.EncodedRelation`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError, SchemaError
from repro.relation.encoding import EncodedRelation
from repro.relation.schema import Schema


def _list_without(items: List[Any], dropped: Sequence[int]) -> List[Any]:
    """``items`` minus the positions ``dropped`` (sorted, distinct):
    the slices between them, joined.  Python work is per dropped
    position, never per kept item.

    >>> _list_without(["a", "b", "c", "d"], [1, 2])
    ['a', 'd']
    """
    bounds = [-1, *dropped, len(items)]
    kept = []
    for before, after in zip(bounds, bounds[1:]):
        kept += items[before + 1:after]
    return kept


class Relation:
    """A named, typed, in-memory table.

    Construct via :meth:`from_rows`, :meth:`from_columns`, or
    :func:`repro.relation.csvio.read_csv`.

    >>> r = Relation.from_rows(["a", "b"], [(1, "x"), (2, "y")])
    >>> r.n_rows, r.arity
    (2, 2)
    >>> r.column("b")
    ['x', 'y']
    """

    __slots__ = ("_schema", "_columns", "_n_rows", "_encoded")

    def __init__(self, schema: Schema, columns: Sequence[Sequence[Any]]):
        if len(columns) != schema.arity:
            raise DataError(
                f"schema has {schema.arity} attributes but "
                f"{len(columns)} columns were given")
        columns = [list(col) for col in columns]
        n_rows = len(columns[0]) if columns else 0
        for name, col in zip(schema.names, columns):
            if len(col) != n_rows:
                raise DataError(
                    f"column {name!r} has {len(col)} values, expected {n_rows}")
        self._schema = schema
        self._columns: List[List[Any]] = columns
        self._n_rows = n_rows
        self._encoded: Optional[EncodedRelation] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, names: Iterable[str],
                  rows: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from an iterable of equally sized rows."""
        schema = Schema(names)
        columns: List[List[Any]] = [[] for _ in range(schema.arity)]
        for row_number, row in enumerate(rows):
            row = tuple(row)
            if len(row) != schema.arity:
                raise DataError(
                    f"row {row_number} has {len(row)} values, "
                    f"expected {schema.arity}")
            for column, value in zip(columns, row):
                column.append(value)
        return cls(schema, columns)

    @classmethod
    def from_columns(cls, columns: Dict[str, Sequence[Any]]) -> "Relation":
        """Build a relation from a mapping of name -> column values."""
        schema = Schema(columns.keys())
        return cls(schema, [columns[name] for name in schema.names])

    @classmethod
    def _adopt(cls, schema: Schema, columns: List[List[Any]],
               encoded: Optional[EncodedRelation] = None) -> "Relation":
        """A relation over ``columns`` as given: equally long lists
        that the caller just built and nobody else holds, so unlike
        the constructor it copies nothing."""
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._columns = columns
        relation._n_rows = len(columns[0]) if columns else 0
        relation._encoded = encoded
        return relation

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def names(self) -> Tuple[str, ...]:
        return self._schema.names

    @property
    def arity(self) -> int:
        return self._schema.arity

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def column(self, name: str) -> List[Any]:
        """A copy-free view (the internal list) of one column's values."""
        return self._columns[self._schema.index(name)]

    def column_at(self, index: int) -> List[Any]:
        """The column at a schema index."""
        if not 0 <= index < self.arity:
            raise SchemaError(f"column index {index} out of range")
        return self._columns[index]

    def row(self, index: int) -> Tuple[Any, ...]:
        """One tuple of the relation, in schema attribute order."""
        if not 0 <= index < self._n_rows:
            raise DataError(f"row index {index} out of range")
        return tuple(col[index] for col in self._columns)

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over all tuples."""
        return zip(*self._columns)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Relation":
        """A new relation containing only ``names`` (in the given order)."""
        schema = self._schema.project(names)
        columns = [self._columns[self._schema.index(n)] for n in names]
        return Relation(schema, [list(c) for c in columns])

    def take(self, n: int) -> "Relation":
        """The first ``n`` rows (a prefix sample, like the paper's
        tuple-count scaling experiments)."""
        n = max(0, min(n, self._n_rows))
        return Relation(self._schema, [col[:n] for col in self._columns])

    def sample(self, n: int, seed: int = 0) -> "Relation":
        """A uniform random sample of ``n`` rows without replacement."""
        if n >= self._n_rows:
            return self
        rng = random.Random(seed)
        picked = sorted(rng.sample(range(self._n_rows), n))
        return self.select_rows(picked)

    def select_rows(self, indices: Sequence[int]) -> "Relation":
        """A new relation keeping only the given row indices, in order.

        When this relation has already been encoded, the selection's
        encoding is derived by one vectorized re-densification per
        column (:meth:`repro.relation.encoding.EncodedRelation.select_rows`)
        instead of re-keying every surviving cell.  The raw columns
        are gathered cell by cell; :meth:`drop_rows` is the cheaper
        path when only a few rows go.
        """
        columns = [list(map(col.__getitem__, indices))
                   for col in self._columns]
        return Relation._adopt(
            self._schema, columns,
            None if self._encoded is None
            else self._encoded.select_rows(indices))

    def drop_rows(self, indices: Iterable[int]) -> "Relation":
        """A new relation with the given row indices removed (indices
        outside the relation are ignored) — the delete path.

        Each column is rebuilt from slices around the dropped
        positions (:func:`_list_without`), so the cost is a pointer
        copy per row plus Python work per dropped row, never per kept
        one.  When this relation has already been encoded, so is the
        result:
        :meth:`repro.relation.encoding.EncodedRelation.drop_rows`
        derives it from the rank columns.
        """
        dropped = np.unique(np.fromiter(indices, dtype=np.int64))
        dropped = dropped[(dropped >= 0) & (dropped < self._n_rows)]
        positions = dropped.tolist()
        columns = [_list_without(column, positions)
                   for column in self._columns]
        return Relation._adopt(
            self._schema, columns,
            None if self._encoded is None
            else self._encoded.drop_rows(dropped))

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """A new relation with attributes renamed via ``mapping``."""
        names = [mapping.get(n, n) for n in self._schema.names]
        return Relation(Schema(names), [list(c) for c in self._columns])

    def sort_by(self, names: Sequence[str]) -> "Relation":
        """Rows reordered lexicographically by the given attributes —
        the semantics of SQL ``ORDER BY`` / the paper's order
        specifications.  Stable, so prior order breaks remaining ties.
        Missing values sort first, mixed types per
        :func:`repro.relation.encoding.sort_key`."""
        from repro.relation.encoding import sort_key

        columns = [self.column(name) for name in names]
        order = sorted(
            range(self._n_rows),
            key=lambda row: tuple(sort_key(col[row]) for col in columns))
        return self.select_rows(order)

    def concat(self, other: "Relation") -> "Relation":
        """Rows of ``self`` followed by rows of ``other`` (schemas must
        match exactly)."""
        if self._schema != other._schema:
            raise SchemaError(
                f"cannot concat: schemas differ "
                f"({self.names} vs {other.names})")
        columns = [
            list(mine) + list(theirs)
            for mine, theirs in zip(self._columns, other._columns)
        ]
        return Relation(self._schema, columns)

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """A new relation with ``rows`` appended — the warehouse load
        path.

        When this relation has already been encoded, the appended
        relation's encoding is derived *incrementally*: only the new
        values are keyed and the old rank columns shift through one
        vectorized monotone remap per column
        (:meth:`repro.relation.encoding.EncodedRelation.append_values`),
        instead of re-sorting the whole column.  ``self`` is untouched.
        """
        batch_columns: List[List[Any]] = [[] for _ in range(self.arity)]
        for row_number, row in enumerate(rows):
            row = tuple(row)
            if len(row) != self.arity:
                raise DataError(
                    f"appended row {row_number} has {len(row)} values, "
                    f"expected {self.arity}")
            for column, value in zip(batch_columns, row):
                column.append(value)
        columns = [
            mine + batch for mine, batch in zip(self._columns, batch_columns)
        ]
        encoded = None
        if self._encoded is not None and self._encoded.keys is not None:
            encoded, _ = self._encoded.append_values(batch_columns)
        return Relation._adopt(self._schema, columns, encoded)

    def append_relation(self, other: "Relation") -> "Relation":
        """:meth:`append_rows` taking another relation's tuples (schemas
        must match exactly)."""
        if self._schema != other._schema:
            raise SchemaError(
                f"cannot append: schemas differ "
                f"({self.names} vs {other.names})")
        return self.append_rows(other.rows())

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self) -> EncodedRelation:
        """Rank-encode all columns (cached; see paper Section 4.6).

        The encoding retains per-column key dictionaries so that
        :meth:`append_rows` can extend it incrementally.
        """
        if self._encoded is None:
            self._encoded = EncodedRelation.from_columns(
                self._schema.names, self._columns)
        return self._encoded

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return (self._schema == other._schema
                    and self._columns == other._columns)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"Relation({list(self.names)!r}, "
                f"n_rows={self._n_rows})")

    def pretty(self, limit: int = 10) -> str:
        """A small fixed-width rendering for logs and examples."""
        header = list(self.names)
        shown = [
            [str(v) for v in self.row(i)]
            for i in range(min(limit, self._n_rows))
        ]
        widths = [
            max(len(header[c]), *(len(r[c]) for r in shown)) if shown
            else len(header[c])
            for c in range(self.arity)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in shown)
        if self._n_rows > limit:
            lines.append(f"... ({self._n_rows - limit} more rows)")
        return "\n".join(lines)
