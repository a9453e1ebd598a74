"""Static lock footprints: the shared source of truth for 2PL acquisition.

Every statement type acquires its locks in a fixed, documented order
(:mod:`repro.sqldb.database`): a SELECT takes table-level S on every base
relation it reads; an INSERT takes table-level X on its target (phantom
protection) plus table-level S on INSERT ... SELECT sources; UPDATE and
DELETE take table-level S on the base tables of their WHERE subqueries
and then row-level X on every matched row.  This module expresses that
policy as *data* — a tuple of :class:`LockRequest` per statement.  The
runtime binds row-granularity requests to actual row ids; the offline
transaction-script analyzer reasons about the same requests
symbolically with the conflict tests at the bottom of this module.  One
model, so a conflict predicted offline is one the lock manager can
produce.

Row-granularity requests carry what is statically knowable about the
rows: when the WHERE clause pins a single column to literal values
(``id = 1`` or ``id IN (1, 2)``), ``key_column``/``keys`` record them and
two requests with provably disjoint key sets do not overlap.  A missing
WHERE clause is recorded as ``whole_table`` (the statement touches every
row).  Anything else — parameters, ranges, subqueries — is *unbounded*:
it may overlap anything on the same table, which keeps the static model
conservative (it may over-predict conflicts, never under-predict them).

Everything here is pure: building a footprint never touches a catalog,
a lock manager, or any table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.concurrency.locks import LockMode, compatible
from repro.sqldb import ast_nodes as ast
from repro.sqldb import ast_walk

#: Resolves a SELECT statement to the base tables it reads:
#: ``Database._referenced_tables`` (which expands views), or
#: :func:`repro.sqldb.ast_walk.referenced_tables` without a catalog.
TablesOf = Callable[[ast.SelectStatement], Sequence[str]]


class Granularity(Enum):
    """What a lock request covers: the whole table, or matched rows."""

    TABLE = "table"
    ROWS = "rows"


@dataclass(frozen=True)
class LockRequest:
    """One lock the statement will ask the :class:`LockManager` for.

    ``TABLE`` granularity maps to the manager's ``(table, None)``
    resource; ``ROWS`` granularity maps to one ``(table, row_id)``
    acquisition per matched row, bound at execution time.
    """

    table: str
    mode: LockMode
    granularity: Granularity
    #: Column the WHERE clause pins with literal equality/IN, if any.
    key_column: Optional[str] = None
    #: The literal key values, when statically known (None = unbounded).
    keys: Optional[Tuple[Any, ...]] = None
    #: True when the statement has no WHERE clause: every row is touched.
    whole_table: bool = False

    def covers_table(self) -> bool:
        """Whether the request certainly covers the entire table."""
        return self.granularity is Granularity.TABLE or self.whole_table

    def describe(self) -> str:
        """Human-readable form, as deadlock-risk reports quote it."""
        if self.granularity is Granularity.TABLE:
            return f"{self.mode.value} on table {self.table!r}"
        if self.whole_table:
            return f"{self.mode.value} on every row of {self.table!r}"
        if self.keys is not None and self.key_column is not None:
            keys = ", ".join(repr(key) for key in self.keys)
            return (
                f"{self.mode.value} on {self.table!r} rows "
                f"[{self.key_column} IN ({keys})]"
            )
        return f"{self.mode.value} on {self.table!r} rows (unbounded)"


# -- builders (one per statement type) --------------------------------------


def select_footprint(tables: Iterable[str]) -> Tuple[LockRequest, ...]:
    """Table-level S on every base relation the query reads."""
    return tuple(
        LockRequest(table.lower(), LockMode.SHARED, Granularity.TABLE)
        for table in tables
    )


def insert_footprint(
    table: str, source_tables: Iterable[str] = ()
) -> Tuple[LockRequest, ...]:
    """Table-level X on the target (serialises against table-S scans,
    closing the phantom window), then table-level S on any
    INSERT ... SELECT source tables."""
    return (
        LockRequest(table.lower(), LockMode.EXCLUSIVE, Granularity.TABLE),
    ) + select_footprint(source_tables)


def update_footprint(
    table: str,
    where: Optional[ast.Expression],
    subquery_tables: Iterable[str] = (),
) -> Tuple[LockRequest, ...]:
    """Table-level S on WHERE-subquery sources, then row-level X on every
    matched row of the target."""
    return select_footprint(subquery_tables) + (_row_request(table, where),)


def delete_footprint(
    table: str,
    where: Optional[ast.Expression],
    subquery_tables: Iterable[str] = (),
) -> Tuple[LockRequest, ...]:
    """Same shape as :func:`update_footprint`: reads feed the match, the
    matched rows are X-locked before the first mutation."""
    return select_footprint(subquery_tables) + (_row_request(table, where),)


def _row_request(
    table: str, where: Optional[ast.Expression]
) -> LockRequest:
    if where is None:
        return LockRequest(
            table.lower(),
            LockMode.EXCLUSIVE,
            Granularity.ROWS,
            whole_table=True,
        )
    key_column, keys = bounded_keys(where)
    return LockRequest(
        table.lower(),
        LockMode.EXCLUSIVE,
        Granularity.ROWS,
        key_column=key_column,
        keys=keys,
    )


def bounded_keys(
    where: ast.Expression,
) -> Tuple[Optional[str], Optional[Tuple[Any, ...]]]:
    """(column, literal keys) when a top-level conjunct pins one column
    via ``= literal`` or ``IN (literals)``; ``(None, None)`` otherwise.

    Parameters deliberately do not bound: their values are not in the
    statement, so a parameterised predicate stays unbounded (may overlap
    anything on the table)."""
    for conjunct in ast_walk.split_conjuncts(where):
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.operator == "="
        ):
            sides = (conjunct.left, conjunct.right)
            for column_side, value_side in (sides, sides[::-1]):
                if isinstance(column_side, ast.ColumnRef) and isinstance(
                    value_side, ast.Literal
                ):
                    return column_side.name.lower(), (value_side.value,)
        if isinstance(conjunct, ast.InList) and not conjunct.negated:
            if isinstance(conjunct.operand, ast.ColumnRef) and all(
                isinstance(item, ast.Literal) for item in conjunct.items
            ):
                return (
                    conjunct.operand.name.lower(),
                    tuple(item.value for item in conjunct.items),
                )
    return None, None


def where_subquery_tables(
    where: Optional[ast.Expression], tables_of: TablesOf
) -> Tuple[str, ...]:
    """Base tables referenced by subqueries of a DML WHERE clause — they
    are read during the match, so they need shared locks too."""
    if where is None:
        return ()
    names: Set[str] = set()
    for __, subquery in ast_walk.iter_subqueries(where):
        names.update(tables_of(subquery))
    return tuple(sorted(names))


def statement_footprint(
    statement: Any, tables_of: TablesOf
) -> Tuple[LockRequest, ...]:
    """The lock footprint of any statement type.

    Control statements (BEGIN/COMMIT/ROLLBACK) and DDL acquire no
    lock-manager locks (DDL is rejected inside transactions instead) and
    return the empty footprint.
    """
    if isinstance(statement, ast.SelectStatement):
        return select_footprint(tables_of(statement))
    if isinstance(statement, ast.Insert):
        sources: Sequence[str] = ()
        if statement.select is not None:
            sources = tables_of(statement.select)
        return insert_footprint(statement.table, sources)
    if isinstance(statement, ast.Update):
        return update_footprint(
            statement.table,
            statement.where,
            where_subquery_tables(statement.where, tables_of),
        )
    if isinstance(statement, ast.Delete):
        return delete_footprint(
            statement.table,
            statement.where,
            where_subquery_tables(statement.where, tables_of),
        )
    return ()


# -- static conflict tests ---------------------------------------------------


def may_overlap(a: LockRequest, b: LockRequest) -> bool:
    """Whether two requests may cover a common resource.

    The static twin of ``LockManager._overlaps``: different tables never
    overlap; table-granularity overlaps everything on its table; two
    row-granularity requests with provably disjoint literal keys on the
    same column do not overlap; everything else conservatively may.
    """
    if a.table != b.table:
        return False
    if a.covers_table() or b.covers_table():
        return True
    if (
        a.keys is None
        or b.keys is None
        or a.key_column is None
        or a.key_column != b.key_column
    ):
        return True
    return bool(set(a.keys) & set(b.keys))


def may_conflict(a: LockRequest, b: LockRequest) -> bool:
    """Whether two requests from *different* owners may block each other:
    they may cover a common resource and their modes are incompatible
    under the manager's S/X matrix."""
    return may_overlap(a, b) and not compatible(a.mode, b.mode)
