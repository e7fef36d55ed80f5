"""Table storage for the SimSQL-style engine.

A table holds its data as columns.  A column whose values are all
Python ``int`` (each below 2**53 in magnitude) is an int64 array; one
whose values are all Python ``float`` and none NaN is a float64 array;
every other column (strings, blobs, mixed types, NaN-bearing floats) is
a plain list holding the original objects.  Both array kinds convert
back to the very same Python values with ``tolist()``, and arithmetic
on them is exact, so an operator may work on whole columns without
changing a single value.  NaN stays in object columns because Python
compares NaN by identity in dict keys and tuples, and an array would
lose that identity.

Tables are immutable: operators share unchanged columns between their
input and output.  :attr:`Table.rows` materializes tuples on demand for
the VG functions and the result readers; the tracer still charges the
simulated platform per tuple, whatever the host does.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.cluster.events import DATA
from repro.cluster.sizes import estimate_sample_bytes, sample_positions
from repro.relational.schema import Schema

#: Magnitude bound of an int64 column: below it every value, and every
#: sum or product the executor lets NumPy form, is exact in float64.
EXACT_INT = 2**53


def as_column(values: list | np.ndarray) -> np.ndarray | list:
    """Store a list of Python values, or a vector computed from
    columns, as a column (see module doc)."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "i" or (values.dtype.kind == "f"
                                        and not np.isnan(values).any()):
            return values
        return values.tolist()
    types = set(map(type, values))
    if types == {float}:
        array = np.array(values, dtype=np.float64)
        if not np.isnan(array).any():
            return array
    elif types == {int}:
        try:
            array = np.array(values, dtype=np.int64)
        except OverflowError:
            return values
        if -EXACT_INT < array.min() and array.max() < EXACT_INT:
            return array
    return values


def column_values(column) -> list:
    """A column (or a vector result) as a list of Python values."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def take(column, index: np.ndarray):
    """The column's values at ``index`` (an int array), in that order."""
    if isinstance(column, np.ndarray):
        return column[index]
    return [column[i] for i in index.tolist()]


class _Rows(list):
    """The read-only row list of a table (its columns are the data)."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("Table.rows is read-only; build a new table instead")

    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only

    def __reduce__(self):
        return (list, (list(self),))


class Table:
    """A named relation: schema + columns + the scale group its
    cardinality belongs to (``"data"`` tables grow with the workload;
    model-sized tables are ``FIXED``)."""

    def __init__(self, name: str, schema: Schema, columns: list, scale: str = DATA) -> None:
        self.name = name
        self.schema = schema
        self.columns = columns
        self.scale = scale
        self._rows: _Rows | None = None
        self._bytes: float | None = None

    @classmethod
    def from_rows(cls, name: str, schema: Schema, rows: list, scale: str = DATA) -> "Table":
        """Columnize ``rows``, checking every row against the schema width."""
        width = len(schema)
        if set(map(len, rows)) - {width}:
            row = next(row for row in rows if len(row) != width)
            raise ValueError(
                f"row {row!r} has {len(row)} fields, schema {schema.columns} has {width}"
            )
        columns = [as_column(list(map(itemgetter(i), rows))) for i in range(width)]
        return cls(name, schema, columns, scale)

    def view(self, schema: Schema) -> "Table":
        """The same data under another schema (scans, aliases, renames)."""
        out = Table("", schema, self.columns, self.scale)
        out._rows, out._bytes = self._rows, self._bytes
        return out

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def rows(self) -> list[tuple]:
        """Every row as a tuple, materialized once (read-only)."""
        if self._rows is None:
            self._rows = _Rows(zip(*map(column_values, self.columns)))
        return self._rows

    def _row(self, index: int) -> tuple:
        return tuple(c.item(index) if isinstance(c, np.ndarray) else c[index]
                     for c in self.columns)

    def estimated_bytes(self) -> float:
        """Approximate on-disk footprint (sampled; fields may hold
        blobs such as a super vertex's point matrix).  Computed once:
        the table never changes."""
        if self._bytes is None:
            n = len(self)
            sample = [self._row(i) for i in sample_positions(n)]
            self._bytes = estimate_sample_bytes(sample, n) + n * 8.0
        return self._bytes
