"""Abstract syntax tree for the SQL dialect understood by the engine.

The nodes are plain frozen-ish dataclasses: the parser builds them, the
planner walks them, and nothing mutates them afterwards.  Expression nodes
and statement nodes live in the same module because they reference each
other (subqueries embed select statements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.sqldb.types import SQLType


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, or NULL."""

    value: object


@dataclass
class ColumnRef(Expression):
    """A possibly qualified column reference, e.g. ``assy.obid``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass
class Parameter(Expression):
    """A positional ``?`` placeholder, bound at execution time."""

    index: int


@dataclass
class UnaryOp(Expression):
    """Unary operator: ``NOT expr``, ``-expr``, ``+expr``."""

    operator: str
    operand: Expression


@dataclass
class BinaryOp(Expression):
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""

    operator: str
    left: Expression
    right: Expression


@dataclass
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT x)``
    and friends.  Whether the name denotes an aggregate is decided by the
    function registry at planning time.
    """

    name: str
    args: List[Expression] = field(default_factory=list)
    star: bool = False
    distinct: bool = False


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    target: SQLType


@dataclass
class IsNullTest(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    """``expr [NOT] IN (value, ...)``."""

    operand: Expression
    items: List[Expression] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "SelectStatement" = None
    negated: bool = False


@dataclass
class ExistsTest(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "SelectStatement" = None
    negated: bool = False


@dataclass
class ScalarSubquery(Expression):
    """A parenthesised SELECT used as a scalar value."""

    subquery: "SelectStatement" = None


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression = None
    high: Expression = None
    negated: bool = False


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression = None
    negated: bool = False


@dataclass
class CaseWhen(Expression):
    """Searched CASE expression: ``CASE WHEN c THEN v ... ELSE d END``."""

    branches: List[Tuple[Expression, Expression]] = field(default_factory=list)
    default: Optional[Expression] = None


# --------------------------------------------------------------------------
# SELECT structure
# --------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One item of a select list: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class Star:
    """``*`` or ``alias.*`` in a select list."""

    qualifier: Optional[str] = None


class FromItem:
    """Base class for FROM clause items."""


@dataclass
class TableRef(FromItem):
    """A named table (or CTE) reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        """The name this table is known by inside the query."""
        return self.alias if self.alias else self.name


@dataclass
class SubqueryRef(FromItem):
    """A derived table: ``(SELECT ...) AS alias``."""

    subquery: "SelectStatement"
    alias: str = ""


@dataclass
class Join(FromItem):
    """A binary join between two FROM items.

    ``kind`` is one of ``"INNER"``, ``"LEFT"``, ``"CROSS"``.  ``condition``
    is None for CROSS joins.
    """

    left: FromItem
    right: FromItem
    kind: str = "INNER"
    condition: Optional[Expression] = None


@dataclass
class SelectCore:
    """A single SELECT block (no set operators, no ORDER BY)."""

    items: List[Union[SelectItem, Star]]
    from_items: List[FromItem] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    distinct: bool = False


@dataclass
class SetOperation:
    """A set operation combining two query bodies.

    ``operator`` is ``"UNION"``, ``"UNION ALL"``, ``"INTERSECT"`` or
    ``"EXCEPT"``.  Set operators associate left in this dialect.
    """

    operator: str
    left: Union[SelectCore, "SetOperation"]
    right: Union[SelectCore, "SetOperation"]


@dataclass
class OrderItem:
    """One ORDER BY key.

    ``expression`` may be a 1-based positional :class:`Literal` integer,
    per the SQL convention the paper's queries use (``ORDER BY 1, 2``).
    """

    expression: Expression
    descending: bool = False


@dataclass
class CommonTableExpr:
    """One CTE of a WITH clause: name, optional column list, and body."""

    name: str
    columns: List[str]
    body: Union[SelectCore, SetOperation]


@dataclass
class WithClause:
    """``WITH [RECURSIVE] cte [, cte ...]``."""

    recursive: bool
    ctes: List[CommonTableExpr]


@dataclass
class SelectStatement:
    """A complete query: optional WITH clause, body, ORDER BY,
    LIMIT/OFFSET."""

    body: Union[SelectCore, SetOperation]
    with_clause: Optional[WithClause] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None


# --------------------------------------------------------------------------
# DDL / DML statements
# --------------------------------------------------------------------------


@dataclass
class ColumnDef:
    """A column definition in CREATE TABLE."""

    name: str
    sql_type: SQLType
    not_null: bool = False
    primary_key: bool = False


@dataclass
class CreateTable:
    name: str
    columns: List[ColumnDef]


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: List[str]
    unique: bool = False


@dataclass
class DropTable:
    name: str


@dataclass
class Insert:
    """``INSERT INTO t [(cols)] VALUES (...), ...`` or ``INSERT ... SELECT``."""

    table: str
    columns: Optional[List[str]]
    rows: Optional[List[List[Expression]]] = None
    select: Optional[SelectStatement] = None


@dataclass
class Update:
    table: str
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete:
    table: str
    where: Optional[Expression] = None


@dataclass
class CreateView:
    """``CREATE VIEW name [(columns)] AS select``.

    Views are stored as their defining statement and expanded at plan time
    — which is exactly why the paper's query modificator cannot see
    through them (Section 5.5: "if the recursive query (or a part of it)
    is hidden in a view ... the proposed modifications cannot be
    performed").
    """

    name: str
    columns: Optional[List[str]]
    select: "SelectStatement"


@dataclass
class DropView:
    name: str


@dataclass
class BeginTransaction:
    #: ``BEGIN [TRANSACTION] READ ONLY``: the transaction rejects DML and
    #: reads a snapshot instead of taking S locks.
    read_only: bool = False


@dataclass
class CommitTransaction:
    pass


@dataclass
class RollbackTransaction:
    pass


@dataclass
class Explain:
    """``EXPLAIN [ANALYZE] <select>`` — the physical plan as text rows —
    or ``EXPLAIN <update|delete>``: the plan that locates the target rows.

    With ``ANALYZE`` the statement is actually executed and each plan
    operator is annotated with its invocation and produced-row counts
    (SELECT only: explaining a write must not perform it).
    """

    statement: Union["SelectStatement", "Update", "Delete"]
    analyze: bool = False


@dataclass
class Analyze:
    """``ANALYZE [table]`` — collect optimizer statistics.

    With no table name every table in the catalog is analyzed.  The
    result set reports one row per analyzed table.
    """

    table: Optional[str] = None


Statement = Union[
    SelectStatement, CreateTable, CreateIndex, DropTable, Insert, Update, Delete
]


def walk_expression(expression: Expression):
    """Yield *expression* and all its sub-expressions depth-first.

    Subqueries are yielded as their wrapper nodes but not descended into —
    the planner treats subquery boundaries explicitly.
    """
    stack = [expression]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        if isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, FunctionCall):
            stack.extend(node.args)
        elif isinstance(node, Cast):
            stack.append(node.operand)
        elif isinstance(node, IsNullTest):
            stack.append(node.operand)
        elif isinstance(node, InList):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, InSubquery):
            stack.append(node.operand)
        elif isinstance(node, Between):
            stack.extend((node.operand, node.low, node.high))
        elif isinstance(node, Like):
            stack.extend((node.operand, node.pattern))
        elif isinstance(node, CaseWhen):
            for condition, value in node.branches:
                stack.extend((condition, value))
            if node.default is not None:
                stack.append(node.default)
