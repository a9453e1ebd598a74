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
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.sqldb.types import is_null

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


class Aggregator:
    """Incremental computation of one aggregate function.

    SQL semantics: NULL inputs are ignored; COUNT(*) counts rows; an empty
    group yields NULL for AVG/MAX/MIN/SUM and 0 for COUNT.
    """

    def __init__(self, name: str, distinct: bool = False, star: bool = False) -> None:
        self.name = name.upper()
        if self.name not in AGGREGATE_NAMES:
            raise ExecutionError(f"{name!r} is not an aggregate function")
        self.distinct = distinct
        self.star = star
        self._count = 0
        self._total: Any = None
        self._extreme: Any = None
        self._seen = set() if distinct else None

    def add(self, value: Any) -> None:
        """Feed one input value (ignored if NULL, unless COUNT(*))."""
        if self.star:
            self._count += 1
            return
        if is_null(value):
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1
        if self.name in ("SUM", "AVG"):
            self._total = value if self._total is None else self._total + value
        elif self.name == "MAX":
            if self._extreme is None or value > self._extreme:
                self._extreme = value
        elif self.name == "MIN":
            if self._extreme is None or value < self._extreme:
                self._extreme = value

    def add_many(self, values: Sequence[Any]) -> None:
        """Feed a column slice, leaving exactly the state that one
        :meth:`add` per value, in order, would.

        COUNT(*) counts ``len(values)``.  Otherwise NULLs (``None``) are
        dropped, DISTINCT screens the rest against ``_seen`` in input
        order, SUM/AVG fold left with ``+`` from the running total and
        MIN/MAX fold with the builtin into the running extreme.  Never
        ``sum()`` or ``math.fsum``: both round floats differently from a
        left fold (``sum`` compensates from Python 3.12).
        """
        if self.star:
            self._count += len(values)
            return
        if None in values:
            values = [value for value in values if value is not None]
        seen = self._seen
        if seen is not None:
            # ``seen.add`` returns None, so a first sighting is kept.
            values = [
                value for value in values if not (value in seen or seen.add(value))
            ]
        if not values:
            return
        self._count += len(values)
        name = self.name
        if name in ("SUM", "AVG"):
            total = self._total
            self._total = reduce(add, values) if total is None else reduce(add, values, total)
        elif name in ("MAX", "MIN"):
            fold = max if name == "MAX" else min
            extreme = self._extreme
            self._extreme = fold(values) if extreme is None else fold((extreme, *values))

    def result(self) -> Any:
        """Return the aggregate value for the rows fed so far."""
        if self.name == "COUNT":
            return self._count
        if self._count == 0:
            return None
        if self.name == "SUM":
            return self._total
        if self.name == "AVG":
            return self._total / self._count
        return self._extreme


#: Each aggregate over a group's non-NULL values (at least one but COUNT's).
_FOLDS: Dict[str, Callable[[List[Any]], Any]] = dict(
    COUNT=len, SUM=partial(reduce, add), AVG=lambda v: reduce(add, v) / len(v), MAX=max, MIN=min
)


def fold(name: str, distinct: bool = False, star: bool = False) -> Callable[[List[Any]], Any]:
    """Aggregate *name* over all of a group's values, in row order: what an
    :class:`Aggregator` fed them returns (NULLs dropped, DISTINCT keeping
    first sightings, SUM and AVG a left fold, MAX and MIN the first extreme).
    SUM, AVG, MAX and MIN fold the values as they are, and drop the NULLs
    only where that raises ``TypeError``, as two or more values holding a
    NULL do (a lone NULL folds to None either way)."""
    whole = _FOLDS[name.upper()]

    def folded(values: List[Any]) -> Any:
        if None in values:
            values = [value for value in values if value is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        return whole(values) if values or whole is len else None

    def optimistic(values: List[Any]) -> Any:
        try:
            return whole(values) if values else None
        except TypeError:
            return folded(values)

    return len if star else folded if distinct or whole is len else optimistic
