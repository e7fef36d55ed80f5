"""Relational schemas: named, ordered columns of a table."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Schema:
    """Ordered column names of a relation.

    A table's columns, and the tuples of its rows, align positionally
    with the schema.  Relations keep SimSQL's tuple-oriented shape: a
    d x d matrix really is d^2 rows of ``(i, j, value)``, each charged
    as a tuple.
    """

    columns: tuple[str, ...]

    def __init__(self, columns) -> None:
        columns = tuple(columns)
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {columns}")
        if not columns:
            raise ValueError("a schema needs at least one column")
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in schema {self.columns}") from None

    def resolve(self, name: str) -> int:
        """SQL-style resolution: exact match, else a qualified name's
        bare suffix, else a bare name's unique qualified match."""
        if name in self.columns:
            return self.columns.index(name)
        if "." in name:
            suffix = name.split(".")[-1]
            if suffix in self.columns:
                return self.columns.index(suffix)
        else:
            qualified = [i for i, c in enumerate(self.columns)
                         if c.endswith("." + name)]
            if len(qualified) == 1:
                return qualified[0]
            if len(qualified) > 1:
                raise KeyError(f"ambiguous column {name!r} in schema {self.columns}")
        raise KeyError(f"no column {name!r} in schema {self.columns}")

    def has(self, name: str) -> bool:
        """Whether :meth:`resolve` would succeed."""
        try:
            self.resolve(name)
        except KeyError:
            return False
        return True

    def rename(self, mapping: dict[str, str]) -> "Schema":
        return Schema(tuple(mapping.get(c, c) for c in self.columns))

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output; clashing names get a ``_r`` suffix."""
        right = [c if c not in self.columns else f"{c}_r" for c in other.columns]
        return Schema(self.columns + tuple(right))
