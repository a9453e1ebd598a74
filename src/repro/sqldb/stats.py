"""Table/column statistics and the planner's cost model (``ANALYZE``).

The paper's tuning loop (Section 5) hinges on knowing which access path
is actually cheap — a sequential scan, a single-key index probe, or a
multi-key ``IN``-list probe.  This module supplies the numbers that
decision needs:

* :class:`StatsCatalog` stores per-table :class:`TableStats` collected by
  the ``ANALYZE [table]`` statement: exact row counts, per-column
  distinct counts, null fractions, min/max, and a small equi-depth
  histogram (exact, not sampled — tables here fit in memory, so ANALYZE
  is one full scan).
* Selectivity estimation walks WHERE/ON conjunct ASTs: ``=`` is priced
  ``(1 - null_frac) / n_distinct``, ranges read the histogram, ``IN`` is
  ``k`` equalities, ``AND``/``OR``/``NOT`` combine with independence
  assumptions, and a column-to-column equality across two tables uses
  the classic ``1 / max(nd_left, nd_right)`` equi-join selectivity.
* The cost model prices a sequential scan against index probes with the
  seq/random cost split of the classic System-R formulation (a probe
  costs :data:`PROBE_COST` ~ four sequential tuples).

Everything here is deterministic: statistics are computed from sorted
values, estimates are pure functions of the statistics, and the planner
breaks cost ties by discovery order — plans stay byte-stable per seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sqldb import ast_nodes as ast
from repro.sqldb.schema import TableSchema
from repro.sqldb.storage import TableStorage

#: Number of equi-depth histogram buckets collected per column.
NUM_HISTOGRAM_BUCKETS = 10

#: Cost of scanning one tuple sequentially (the unit of the model).
SEQ_TUPLE_COST = 1.0

#: Cost of one index probe (a random access ~ four sequential tuples,
#: the ratio the classic cost models and SNIPPETS' CostBasedPlanner use).
PROBE_COST = 4.0

#: Cost of fetching one tuple through an index after the probe.
INDEX_TUPLE_COST = 1.0

#: Cost of one tuple a ``RangeScan`` gathers by its column's sorted copy
#: (sorted back into heap order, fetched, pivoted): a gather of a sixth
#: of a table costs its scan.
GATHER_TUPLE_COST = 6.0

#: Selectivity of a predicate the estimator cannot price (subqueries,
#: opaque expressions): one third, the traditional textbook default.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Default selectivity of a range comparison with no usable histogram.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

#: Default selectivity of an equality on a column without statistics.
DEFAULT_EQ_SELECTIVITY = 0.1

#: Default selectivity of a ``LIKE`` pattern match.
DEFAULT_LIKE_SELECTIVITY = 0.25

_NUMERIC_TYPES = (int, float)


def _is_number(value: object) -> bool:
    return isinstance(value, _NUMERIC_TYPES) and not isinstance(value, bool)


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column, collected by ``ANALYZE``."""

    #: Count of distinct non-NULL values.
    n_distinct: int
    #: Fraction of rows where the column is NULL.
    null_frac: float
    #: Smallest / largest non-NULL value (None when the column is empty
    #: or its values do not sort cleanly).
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    #: Equi-depth histogram boundaries: ``NUM_HISTOGRAM_BUCKETS + 1``
    #: sorted values splitting the non-NULL data into equal-count runs.
    #: Empty when fewer than two values were observed.
    histogram: Tuple[object, ...] = ()

    def eq_selectivity(self) -> float:
        """Fraction of rows matching ``col = <value>`` under the uniform
        assumption: the non-NULL mass split across the distinct values."""
        if self.n_distinct <= 0:
            return 0.0
        return _clamp((1.0 - self.null_frac) / self.n_distinct)

    def fraction_below(self, value: object) -> Optional[float]:
        """Fraction of non-NULL values strictly below *value*, read from
        the histogram (or interpolated from min/max when there is none).
        None when the value does not compare against the column."""
        edges = self.histogram
        try:
            if edges:
                if not _safely_comparable(value, edges[0]):
                    return None
                if value <= edges[0]:  # type: ignore[operator]
                    return 0.0
                if value >= edges[-1]:  # type: ignore[operator]
                    return 1.0
                index = bisect_right(list(edges), value) - 1
                lower, upper = edges[index], edges[index + 1]
                intra = 0.5
                if _is_number(value) and _is_number(lower) and _is_number(upper):
                    width = float(upper) - float(lower)  # type: ignore[arg-type]
                    if width > 0:
                        intra = (float(value) - float(lower)) / width  # type: ignore[arg-type]
                buckets = len(edges) - 1
                return _clamp((index + intra) / buckets)
            if (
                _is_number(value)
                and _is_number(self.min_value)
                and _is_number(self.max_value)
            ):
                low = float(self.min_value)  # type: ignore[arg-type]
                high = float(self.max_value)  # type: ignore[arg-type]
                if high <= low:
                    return 0.0 if float(value) <= low else 1.0
                return _clamp((float(value) - low) / (high - low))
        except TypeError:
            return None
        return None


def _safely_comparable(a: object, b: object) -> bool:
    if _is_number(a) and _is_number(b):
        return True
    return type(a) is type(b)


@dataclass(frozen=True)
class TableStats:
    """Statistics of one table, collected by ``ANALYZE``."""

    table: str
    row_count: int
    #: ``TableStorage.version`` at collection time; a mismatch at plan
    #: time means the statistics are stale (still used — re-ANALYZE to
    #: refresh, exactly like a production optimizer).
    version: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())


def _equi_depth_edges(ordered: Sequence[object]) -> Tuple[object, ...]:
    """Histogram boundaries from the sorted non-NULL values: the sample
    quantiles at ``i / NUM_HISTOGRAM_BUCKETS``.  Deterministic — same
    data, same edges."""
    n = len(ordered)
    if n < 2:
        return ()
    buckets = NUM_HISTOGRAM_BUCKETS
    edges: List[object] = []
    for i in range(buckets + 1):
        position = (i * (n - 1)) // buckets
        edges.append(ordered[position])
    return tuple(edges)


def collect_table_stats(schema: TableSchema, storage: TableStorage) -> TableStats:
    """One full-scan statistics pass over *storage* (the ANALYZE body)."""
    rows = list(storage.rows())
    n = len(rows)
    columns: Dict[str, ColumnStats] = {}
    for position, column in enumerate(schema.columns):
        non_null = [row[position] for row in rows if row[position] is not None]
        null_frac = (n - len(non_null)) / n if n else 0.0
        try:
            ordered: List[object] = sorted(non_null)  # type: ignore[type-var]
        except TypeError:
            ordered = []
        columns[column.name.lower()] = ColumnStats(
            n_distinct=len(set(non_null)),
            null_frac=null_frac,
            min_value=ordered[0] if ordered else None,
            max_value=ordered[-1] if ordered else None,
            histogram=_equi_depth_edges(ordered),
        )
    return TableStats(
        table=schema.name,
        row_count=n,
        version=storage.version,
        columns=columns,
    )


class StatsCatalog:
    """Per-table statistics, keyed case-insensitively by table name.

    Purely advisory: losing it (server crash — statistics are not WAL
    logged) never changes results, only plan quality, and a fresh
    ``ANALYZE`` rebuilds it from the data.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, TableStats] = {}

    def analyze_table(self, schema: TableSchema, storage: TableStorage) -> TableStats:
        stats = collect_table_stats(schema, storage)
        self._tables[schema.name.lower()] = stats
        return stats

    def get(self, name: str) -> Optional[TableStats]:
        return self._tables.get(name.lower())

    def drop(self, name: str) -> None:
        self._tables.pop(name.lower(), None)

    def clear(self) -> None:
        self._tables.clear()

    def table_names(self) -> List[str]:
        return sorted(stats.table for stats in self._tables.values())


# -- cost model --------------------------------------------------------------


def seq_scan_cost(row_count: float) -> float:
    """Cost of sequentially scanning *row_count* tuples."""
    return SEQ_TUPLE_COST * row_count


def index_probe_cost(keys: int, rows_out: float) -> float:
    """Cost of *keys* index probes producing *rows_out* tuples total."""
    return PROBE_COST * keys + INDEX_TUPLE_COST * rows_out


def probe_rows(
    stats: TableStats, column: str, unique: bool, keys: int
) -> float:
    """Estimated rows produced by probing an index on *column* with
    *keys* distinct keys."""
    if unique:
        per_key = 1.0
    else:
        column_stats = stats.column(column)
        selectivity = (
            column_stats.eq_selectivity()
            if column_stats is not None
            else DEFAULT_EQ_SELECTIVITY
        )
        per_key = stats.row_count * selectivity
    return min(float(stats.row_count), keys * per_key)


# -- cardinality estimation over predicate ASTs ------------------------------

BindingStats = Dict[str, Optional[TableStats]]


def column_binding(
    column: ast.ColumnRef, binding_stats: BindingStats
) -> Optional[str]:
    """The binding a column reference resolves to, or None when it is
    unknown or ambiguous (outer references, bindings without statistics
    that might own the name)."""
    if column.qualifier is not None:
        key = column.qualifier.lower()
        return key if key in binding_stats else None
    if any(stats is None for stats in binding_stats.values()):
        return None  # a stats-less binding might own the bare name
    owners = [
        binding
        for binding, stats in binding_stats.items()
        if stats is not None and stats.column(column.name) is not None
    ]
    if len(owners) == 1:
        return owners[0]
    return None


def _column_stats(
    column: ast.ColumnRef, binding_stats: BindingStats
) -> Optional[ColumnStats]:
    binding = column_binding(column, binding_stats)
    if binding is None:
        return None
    table_stats = binding_stats.get(binding)
    if table_stats is None:
        return None
    return table_stats.column(column.name)


def _literal_value(expression: ast.Expression) -> Tuple[bool, object]:
    if isinstance(expression, ast.Literal):
        return True, expression.value
    return False, None


def _has_column_refs(expression: ast.Expression) -> bool:
    return any(
        isinstance(node, ast.ColumnRef)
        for node in ast.walk_expression(expression)
    )


def _equality_selectivity(
    conjunct: ast.BinaryOp, binding_stats: BindingStats
) -> float:
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef):
        left_binding = column_binding(left, binding_stats)
        right_binding = column_binding(right, binding_stats)
        if (
            left_binding is not None
            and right_binding is not None
            and left_binding != right_binding
        ):
            selectivity = equi_join_selectivity_from_stats(
                _column_stats(left, binding_stats),
                _column_stats(right, binding_stats),
            )
            if selectivity is not None:
                return selectivity
        return DEFAULT_EQ_SELECTIVITY
    for column_side, value_side in (
        (left, right),
        (right, left),
    ):
        if not isinstance(column_side, ast.ColumnRef):
            continue
        if _has_column_refs(value_side):
            continue
        stats = _column_stats(column_side, binding_stats)
        if stats is not None:
            return stats.eq_selectivity()
        return DEFAULT_EQ_SELECTIVITY
    return DEFAULT_SELECTIVITY


#: A range comparison with its operands swapped.
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def conjunct_selectivity(
    expression: ast.Expression, binding_stats: BindingStats
) -> float:
    """Estimated fraction of candidate rows satisfying *expression*."""
    if isinstance(expression, ast.BinaryOp):
        operator = expression.operator.upper()
        if operator == "AND":
            return _clamp(
                conjunct_selectivity(expression.left, binding_stats)
                * conjunct_selectivity(expression.right, binding_stats)
            )
        if operator == "OR":
            left = conjunct_selectivity(expression.left, binding_stats)
            right = conjunct_selectivity(expression.right, binding_stats)
            return _clamp(left + right - left * right)
        if operator == "=":
            return _clamp(_equality_selectivity(expression, binding_stats))
        if operator in ("<>", "!="):
            equal = ast.BinaryOp("=", expression.left, expression.right)
            return _clamp(1.0 - _equality_selectivity(equal, binding_stats))
        if operator in FLIPPED:
            return _kept(_interval(expression, binding_stats), DEFAULT_RANGE_SELECTIVITY)
        return DEFAULT_SELECTIVITY
    if isinstance(expression, ast.UnaryOp):
        if expression.operator.upper() == "NOT":
            return _clamp(
                1.0 - conjunct_selectivity(expression.operand, binding_stats)
            )
        return DEFAULT_SELECTIVITY
    if isinstance(expression, ast.InList):
        selectivity = DEFAULT_SELECTIVITY
        if isinstance(expression.operand, ast.ColumnRef):
            stats = _column_stats(expression.operand, binding_stats)
            per_key = (
                stats.eq_selectivity()
                if stats is not None
                else DEFAULT_EQ_SELECTIVITY
            )
            selectivity = _clamp(len(expression.items) * per_key)
        return _clamp(1.0 - selectivity) if expression.negated else selectivity
    if isinstance(expression, ast.IsNullTest):
        null_frac = DEFAULT_EQ_SELECTIVITY
        if isinstance(expression.operand, ast.ColumnRef):
            stats = _column_stats(expression.operand, binding_stats)
            if stats is not None:
                null_frac = stats.null_frac
        return _clamp(1.0 - null_frac) if expression.negated else _clamp(null_frac)
    if isinstance(expression, ast.Between):
        base = DEFAULT_RANGE_SELECTIVITY * DEFAULT_RANGE_SELECTIVITY
        base = _kept(_interval(expression, binding_stats), base)
        return _clamp(1.0 - base) if expression.negated else base
    if isinstance(expression, ast.Like):
        if expression.negated:
            return _clamp(1.0 - DEFAULT_LIKE_SELECTIVITY)
        return DEFAULT_LIKE_SELECTIVITY
    if isinstance(expression, ast.Literal):
        if expression.value is True:
            return 1.0
        if expression.value is False:
            return 0.0
    return DEFAULT_SELECTIVITY


def range_sides(conjunct: ast.Expression) -> List[List[Tuple[ast.Expression, str, ast.Expression]]]:
    """The ways *conjunct* may bound a column, each its ``(column, operator,
    bound)``: ``a < b`` or ``b > a``; ``a [NOT] BETWEEN l AND h``, both."""
    if isinstance(conjunct, ast.Between):
        return [[(conjunct.operand, ">=", conjunct.low), (conjunct.operand, "<=", conjunct.high)]]
    if isinstance(conjunct, ast.BinaryOp) and conjunct.operator in FLIPPED:
        flipped = FLIPPED[conjunct.operator]
        return [[(conjunct.left, conjunct.operator, conjunct.right)], [(conjunct.right, flipped, conjunct.left)]]
    return []


def _interval(conjunct: ast.Expression, binding_stats: BindingStats) -> Optional[tuple]:
    """``(column, its statistics, low, high)``, *low* and *high* the
    fractions of its values below the ends of the interval that
    *conjunct* (:func:`range_sides`, column left first) bounds it to."""
    for sides in range_sides(conjunct):
        column = sides[0][0]
        if not isinstance(column, ast.ColumnRef):
            continue
        stats, fractions = _column_stats(column, binding_stats), [0.0, 1.0]
        for __, operator, end in sides:
            is_literal, value = _literal_value(end)
            fraction = stats.fraction_below(value) if stats and is_literal and value is not None else None
            if fraction is None:
                return None
            fractions[operator[0] == "<"] = fraction
        return (column_binding(column, binding_stats), column.name.lower()), stats, *fractions
    return None


def _kept(interval: Optional[tuple], default: float) -> float:
    """The fraction of rows an :func:`_interval` keeps (*default*: None)."""
    if interval is None:
        return default
    return _clamp((1.0 - interval[1].null_frac) * max(0.0, interval[3] - interval[2]))


def condition_selectivity(
    conjuncts: Sequence[ast.Expression], binding_stats: BindingStats
) -> float:
    """Combined selectivity of *conjuncts* under independence, but that
    two or more range conjuncts on one column are one interval."""
    found = [None if getattr(c, "negated", False) else _interval(c, binding_stats) for c in conjuncts]
    columns: Dict[Tuple[str, str], List[tuple]] = {}
    for interval in filter(None, found):
        columns.setdefault(interval[0], []).append(interval)
    selectivity = 1.0
    for conjunct, interval in zip(conjuncts, found):
        if interval is None:
            selectivity *= conjunct_selectivity(conjunct, binding_stats)
        elif columns[interval[0]][0] is interval:
            group = columns[interval[0]]
            ends = max(i[2] for i in group), min(i[3] for i in group)
            selectivity *= _kept((None, interval[1], *ends), 0.0)
    return _clamp(selectivity)


def bucket(selectivity: float) -> Optional[int]:
    """The log₂ bucket of an estimate (None for none of the rows)."""
    return math.frexp(selectivity)[1] if selectivity else None


def equi_join_selectivity_from_stats(
    left: Optional[ColumnStats], right: Optional[ColumnStats]
) -> Optional[float]:
    """The classic ``1 / max(nd_left, nd_right)`` equi-join selectivity."""
    if left is None or right is None:
        return None
    distinct = max(left.n_distinct, right.n_distinct)
    if distinct <= 0:
        return 0.0
    return _clamp(1.0 / distinct)


def join_selectivity(
    conjunct: ast.Expression,
    left_group: Dict[str, TableStats],
    right_group: Dict[str, TableStats],
) -> Optional[float]:
    """Selectivity of *conjunct* if it is an equi-join predicate between
    the two binding groups; None otherwise."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.operator == "="):
        return None
    if not (
        isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        return None
    combined: BindingStats = {}
    combined.update(left_group)
    combined.update(right_group)
    left_binding = column_binding(conjunct.left, combined)
    right_binding = column_binding(conjunct.right, combined)
    if left_binding is None or right_binding is None:
        return None
    sides = {left_binding in left_group, right_binding in left_group}
    if sides != {True, False}:
        return None  # both columns on the same side: not a join edge
    return equi_join_selectivity_from_stats(
        _column_stats(conjunct.left, combined),
        _column_stats(conjunct.right, combined),
    )


def equi_join_selectivity(
    conjunct: ast.Expression,
    binding_stats: BindingStats,
    left_rows: float,
    right_rows: float,
) -> float:
    """Selectivity of the join key *conjunct* (``l = r``) between inputs of
    *left_rows* and *right_rows*: ``1 / max(nd_l, nd_r)`` when both sides
    are columns with statistics, else ``1 / max(|L|, |R|)`` — each row of
    the smaller input meets one row of the larger (a key / foreign-key
    join), so the join keeps ``|L|·|R| / max(|L|, |R|)`` rows."""
    if (
        isinstance(conjunct, ast.BinaryOp)
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        selectivity = equi_join_selectivity_from_stats(
            _column_stats(conjunct.left, binding_stats),
            _column_stats(conjunct.right, binding_stats),
        )
        if selectivity is not None:
            return selectivity
    return 1.0 / max(left_rows, right_rows, 1.0)
