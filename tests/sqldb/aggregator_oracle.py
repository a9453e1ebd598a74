"""An incremental aggregate: the oracle the engine's folds are checked by.

:func:`repro.sqldb.functions.fold` aggregates a group's values in one
pass over the whole list; :class:`Aggregator` is fed them one value (or
one slice) at a time and keeps a running state, the way the engine
aggregated before it folded.  Two independent implementations of SQL's
aggregate semantics: a test that holds them equal — value, type and
error — checks both.
"""

from functools import reduce
from operator import add
from typing import Any, Sequence

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqldb.functions import AGGREGATE_NAMES


class Aggregator:
    """Incremental computation of one aggregate function.

    SQL semantics: NULL inputs are ignored; COUNT(*) counts rows; SUM and
    AVG add from integer 0, as SQLite does (but text raises, where SQLite
    reads it as 0); an empty group yields NULL for AVG/MAX/MIN/SUM and 0
    for COUNT.
    """

    def __init__(self, name: str, distinct: bool = False, star: bool = False) -> None:
        self.name = name.upper()
        if self.name not in AGGREGATE_NAMES:
            raise ExecutionError(f"{name!r} is not an aggregate function")
        self.distinct = distinct
        self.star = star
        self._count = 0
        self._total: Any = 0
        self._extreme: Any = None
        self._seen = set() if distinct else None

    def add(self, value: Any) -> None:
        """Feed one input value (ignored if NULL, unless COUNT(*))."""
        if self.star:
            self._count += 1
            return
        if value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1
        try:
            if self.name in ("SUM", "AVG"):
                self._total = self._total + value
            elif self.name == "MAX":
                if self._extreme is None or value > self._extreme:
                    self._extreme = value
            elif self.name == "MIN":
                if self._extreme is None or value < self._extreme:
                    self._extreme = value
        except TypeError as exc:
            raise TypeMismatchError(f"{self.name}: {exc}") from None

    def add_many(self, values: Sequence[Any]) -> None:
        """Feed a column slice, leaving exactly the state that one
        :meth:`add` per value, in order, would.

        COUNT(*) counts ``len(values)``.  Otherwise NULLs (``None``) are
        dropped, DISTINCT screens the rest against ``_seen`` in input
        order, SUM/AVG fold left with ``+`` from the running total (integer
        0 at first, so text raises and a BOOLEAN sums to an integer) and
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
        try:
            if name in ("SUM", "AVG"):
                self._total = reduce(add, values, self._total)
            elif name in ("MAX", "MIN"):
                fold = max if name == "MAX" else min
                extreme = self._extreme
                self._extreme = fold(values) if extreme is None else fold((extreme, *values))
        except TypeError as exc:
            raise TypeMismatchError(f"{name}: {exc}") from None

    def result(self) -> Any:
        """Return the aggregate value for the rows fed so far."""
        if self.name == "COUNT":
            return self._count
        if self._count == 0:
            return None
        if self.name == "SUM":
            return self._total
        if self.name == "AVG":
            try:
                return self._total / self._count
            except TypeError as exc:
                raise TypeMismatchError(f"{self.name}: {exc}") from None
        return self._extreme
