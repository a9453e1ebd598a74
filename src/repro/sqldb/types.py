"""SQL type system: type names, and conversion of values to a type.

SQL NULL is represented by Python ``None``.  Boolean expressions evaluate
to one of ``True``, ``False`` or ``None`` (UNKNOWN); the code
:mod:`repro.sqldb.expressions` generates implements Kleene three-valued
AND/OR/NOT and the null-aware comparison rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import TypeMismatchError

#: Marker for SQL NULL.  An alias so calling code reads ``NULL`` not ``None``.
NULL = None


def is_null(value: Any) -> bool:
    """Return True if *value* is the SQL NULL marker."""
    return value is None


@dataclass(frozen=True)
class SQLType:
    """A named SQL data type, optionally parameterised with a length.

    Only the properties the engine needs are modelled: a name used for
    display and CAST targets, an optional length (``VARCHAR(30)``), and the
    serialized width used by :mod:`repro.sqldb.wire` when estimating the
    number of bytes a value of this type occupies on the network.
    """

    name: str
    length: Optional[int] = None

    def __str__(self) -> str:
        if self.length is not None:
            return f"{self.name}({self.length})"
        return self.name

    @property
    def is_character(self) -> bool:
        return self.name in ("VARCHAR", "CHAR")


INTEGER = SQLType("INTEGER")
DOUBLE = SQLType("DOUBLE")
BOOLEAN = SQLType("BOOLEAN")


def VARCHAR(length: int) -> SQLType:
    """Build a VARCHAR type of the given maximum length."""
    return SQLType("VARCHAR", length)


def CHAR(length: int) -> SQLType:
    """Build a fixed-width CHAR type of the given length."""
    return SQLType("CHAR", length)


_TYPE_NAMES = {
    "INTEGER": lambda length: INTEGER,
    "INT": lambda length: INTEGER,
    "SMALLINT": lambda length: INTEGER,
    "BIGINT": lambda length: INTEGER,
    "DOUBLE": lambda length: DOUBLE,
    "FLOAT": lambda length: DOUBLE,
    "REAL": lambda length: DOUBLE,
    "DECIMAL": lambda length: DOUBLE,
    "NUMERIC": lambda length: DOUBLE,
    "BOOLEAN": lambda length: BOOLEAN,
    "VARCHAR": lambda length: SQLType("VARCHAR", length),
    "CHAR": lambda length: SQLType("CHAR", length if length is not None else 1),
    "CHARACTER": lambda length: SQLType("CHAR", length if length is not None else 1),
}


def type_from_name(name: str, length: Optional[int] = None) -> SQLType:
    """Resolve a type name from SQL text (e.g. ``varchar``) to a SQLType.

    Raises :class:`TypeMismatchError` for unknown type names.
    """
    factory = _TYPE_NAMES.get(name.upper())
    if factory is None:
        raise TypeMismatchError(f"unknown SQL type: {name!r}")
    return factory(length)


def _to_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1"):
            return True
        if lowered in ("false", "f", "0"):
            return False
    raise ValueError(value)


def converter(sql_type: SQLType) -> Callable[[Any], Any]:
    """The function that coerces a Python value to the representation of
    *sql_type* — built once per type, so a caller that converts many
    values (an INSERT's rows, a CAST's batch) does the type dispatch once.

    NULL passes through untouched.  Numeric strings are converted for
    numeric targets; everything is stringified for character targets, and
    a value longer than the type's length is truncated to it — by INSERT
    and UPDATE as by CAST, where SQL would raise, which matches the
    engine's permissive storage model.  The converter raises
    :class:`TypeMismatchError` when the conversion is impossible.
    """
    cast: Callable[[Any], Any]
    if sql_type.name == "INTEGER":
        cast = int
    elif sql_type.name == "DOUBLE":
        cast = float
    elif sql_type.name == "BOOLEAN":
        cast = _to_boolean
    elif sql_type.is_character:
        length = sql_type.length

        def cast(value: Any) -> str:
            # Slicing past the end (or by None) returns the text itself.
            return str(value)[:length]

    else:

        def cast(value: Any) -> Any:
            raise TypeMismatchError(f"unsupported cast target {sql_type}")

    def convert(value: Any) -> Any:
        if value is None:
            return NULL
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise TypeMismatchError(
                f"cannot coerce {value!r} to {sql_type}"
            ) from exc

    return convert


#: Type name -> the class :func:`converter` returns a value of unchanged
#: (a ``str`` only within the type's length).
STORED_CLASS = {"INTEGER": int, "DOUBLE": float, "BOOLEAN": bool, "VARCHAR": str, "CHAR": str}
