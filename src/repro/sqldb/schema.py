"""Schema objects: columns, table schemas and the catalog.

The catalog maps case-insensitive table names to their schema and storage.
It is deliberately simple — no schemas/namespaces — because the paper's
PDM mapping is a flat set of tables (``assy``, ``comp``, ``link``,
``spec``, ``specified_by``, plus rule/option tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CatalogError
from repro.sqldb.types import SQLType


@dataclass(frozen=True)
class Column:
    """A column of a table: name, type and constraint flags."""

    name: str
    sql_type: SQLType
    not_null: bool = False
    primary_key: bool = False


@dataclass
class TableSchema:
    """The schema of one table."""

    name: str
    columns: List[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: Number of columns (a table's columns never change).
        self.arity = len(self.columns)
        self._index_by_name: Dict[str, int] = {}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in self._index_by_name:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            self._index_by_name[key] = position

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column_index(self, name: str) -> int:
        """Return the 0-based position of *name* (case-insensitive).

        Raises :class:`CatalogError` for unknown columns.
        """
        try:
            return self._index_by_name[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index_by_name

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def primary_key_index(self) -> Optional[int]:
        """Position of the primary-key column, or None if the table has none."""
        for position, column in enumerate(self.columns):
            if column.primary_key:
                return position
        return None


class Catalog:
    """Case-insensitive registry of tables (schema + storage handle)."""

    def __init__(self) -> None:
        self._tables: Dict[str, "TableEntry"] = {}

    def create(self, schema: TableSchema, storage) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = TableEntry(schema=schema, storage=storage)

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]

    def lookup(self, name: str) -> "TableEntry":
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def exists(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return [entry.schema.name for entry in self._tables.values()]


@dataclass
class TableEntry:
    """Catalog record binding a schema to its storage."""

    schema: TableSchema
    storage: object
