"""Result sets returned by :meth:`repro.sqldb.database.Database.execute`."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


class ResultSet:
    """An immutable query result: column names plus rows.

    For DML statements ``rows`` is empty and ``rowcount`` reports the number
    of affected rows; for queries ``rowcount`` equals ``len(rows)``.
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: Sequence[Tuple[Any, ...]],
        rowcount: Optional[int] = None,
    ) -> None:
        self.columns: List[str] = list(columns)
        # A fresh list (an engine's rows may be a cached chunk); a tuple row is kept as it is.
        self.rows: List[Tuple[Any, ...]] = list(map(tuple, rows))
        self.rowcount: int = len(self.rows) if rowcount is None else rowcount
        #: Lower-cased name -> first position; built by the first
        #: :meth:`column_index` call, since most results are read by
        #: position and never ask.
        self._column_index: Optional[Dict[str, int]] = None

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def fetchall(self) -> List[Tuple[Any, ...]]:
        return list(self.rows)

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """Value of the first column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        """All values of the named column."""
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def column_index(self, name: str) -> int:
        index = self._column_index
        if index is None:
            index = self._column_index = {}
            for position, column in enumerate(self.columns):
                index.setdefault(column.lower(), position)
        try:
            return index[name.lower()]
        except KeyError:
            raise KeyError(
                f"result has no column {name!r}; columns: {self.columns}"
            ) from None

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by (lowercased) column name."""
        keys = [name.lower() for name in self.columns]
        return [dict(zip(keys, row)) for row in self.rows]

    def __repr__(self) -> str:
        return (
            f"ResultSet(columns={self.columns!r}, rows={len(self.rows)}, "
            f"rowcount={self.rowcount})"
        )
