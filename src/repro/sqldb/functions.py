"""Scalar and aggregate function registry, including stored functions.

The paper (Section 3.2) points out that row conditions which exceed the
expressive power of plain SQL predicates — set comparisons, interval
overlaps, transient attribute computations — must be provided as *stored
functions* at the server (SQL/PSM).  This registry is the engine's stand-in
for SQL/PSM: Python callables registered under an SQL name, callable from
any expression.

Built-in scalar functions cover the usual string/numeric helpers; the PDM
layer registers domain functions such as ``options_overlap`` and
``effectivity_overlaps`` on top (see :mod:`repro.pdm.schema`).
"""

from __future__ import annotations

import math
from functools import partial, reduce
from operator import add
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExecutionError, TypeMismatchError

ScalarFunction = Callable[..., Any]

#: Names that denote aggregate functions in this dialect.
AGGREGATE_NAMES = frozenset({"AVG", "COUNT", "MAX", "MIN", "SUM"})


class _Bound(dict):
    """Upper-cased name -> guarded callable; a name never registered is
    an ``ExecutionError`` where the call runs."""

    def __missing__(self, key: str) -> ScalarFunction:
        raise ExecutionError(f"unknown function {key!r}")


def _guarded(name: str, function: ScalarFunction, propagate_null: bool) -> ScalarFunction:
    """*function* as SQL calls it: NULL in, NULL out unless
    *propagate_null* is false, and a Python error out as ``function
    'name' failed``."""

    def call(*args: Any) -> Any:
        if propagate_null and None in args:
            return None
        try:
            return function(*args)
        except ExecutionError:
            raise
        except Exception as exc:  # surface stored-function bugs as SQL errors
            raise ExecutionError(f"function {name!r} failed: {exc}") from exc

    return call


class FunctionRegistry:
    """Case-insensitive registry of scalar functions.

    A fresh registry starts with the built-in functions; servers register
    additional stored functions at runtime.  ``bound`` maps each
    upper-cased name to one guarded callable, so a call from generated
    code is ``bound[NAME](*args)``: one lookup and one call.
    """

    def __init__(self) -> None:
        self.bound: Dict[str, ScalarFunction] = _Bound()
        for name, function in _BUILTINS.items():
            self.register(name, function)

    def register(
        self, name: str, function: ScalarFunction, propagate_null: bool = True
    ) -> None:
        """Register *function* under *name* (replacing any previous binding).

        When ``propagate_null`` is true (the default, matching SQL scalar
        function semantics) the function is not invoked if any argument is
        NULL; the result is NULL instead.
        """
        self.bound[name.upper()] = _guarded(name, function, propagate_null)

    def is_registered(self, name: str) -> bool:
        return name.upper() in self.bound

    def call(self, name: str, args: List[Any]) -> Any:
        return self.bound[name.upper()](*args)

    def names(self) -> List[str]:
        return sorted(self.bound)


def _sql_substr(text: str, start: int, length: Optional[int] = None) -> str:
    """1-based SUBSTR with SQL semantics."""
    begin = max(int(start) - 1, 0)
    if length is None:
        return str(text)[begin:]
    return str(text)[begin : begin + int(length)]


_BUILTINS: Dict[str, ScalarFunction] = {
    "ABS": abs,
    "CEIL": lambda x: math.ceil(x),
    "CEILING": lambda x: math.ceil(x),
    "FLOOR": lambda x: math.floor(x),
    "ROUND": lambda x, digits=0: round(x, int(digits)),
    "SQRT": math.sqrt,
    "MOD": lambda a, b: a % b,
    "POWER": lambda a, b: a**b,
    "LENGTH": lambda s: len(str(s)),
    "LOWER": lambda s: str(s).lower(),
    "UPPER": lambda s: str(s).upper(),
    "TRIM": lambda s: str(s).strip(),
    "LTRIM": lambda s: str(s).lstrip(),
    "RTRIM": lambda s: str(s).rstrip(),
    "SUBSTR": _sql_substr,
    "SUBSTRING": _sql_substr,
    "REPLACE": lambda s, old, new: str(s).replace(str(old), str(new)),
    "CONCAT": lambda *parts: "".join(str(part) for part in parts),
    "SIGN": lambda x: (x > 0) - (x < 0),
}


#: Each aggregate over a group's non-NULL values (at least one but COUNT's),
#: then any further argument it takes (SUM's start, integer 0).
_FOLDS: Dict[str, tuple] = dict(
    COUNT=(len,), SUM=(partial(reduce, add), 0), AVG=(lambda v: reduce(add, v, 0) / len(v),),
    MAX=(max,), MIN=(min,),
)


def fold(name: str, distinct: bool = False, star: bool = False) -> Callable[[List[Any]], Any]:
    """Aggregate *name* over all of a group's values, in row order (NULLs
    dropped, DISTINCT keeping first sightings, SUM and AVG a left fold from
    integer 0 as in SQLite — a BOOLEAN sums to an integer, but text raises
    — MAX and MIN the first extreme; COUNT(*) counts every value): a GROUP
    BY's aggregates, and a rule's tree aggregate (:mod:`repro.rules.evaluate`).
    SUM, AVG, MAX and MIN fold the values as they are, and drop the NULLs
    only where that raises ``TypeError``, as a NULL does in a sum or beside
    another value (a lone NULL folds to None either way)."""
    whole, *start = _FOLDS[name.upper()]

    def folded(values: List[Any]) -> Any:
        if None in values:
            values = [value for value in values if value is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        try:
            return whole(values, *start) if values or whole is len else None
        except TypeError as exc:  # text summed, or numbers and strings in one group
            raise TypeMismatchError(f"{name.upper()}: {exc}") from None

    def optimistic(values: List[Any]) -> Any:
        try:
            return whole(values, *start) if values else None
        except TypeError:
            return folded(values)

    return len if star else folded if distinct or whole is len else optimistic
