"""Reusable AST traversal helpers.

These started life as private functions inside the planner; the static
analyzer (:mod:`repro.analysis`) walks the same structures, so the shared
vocabulary lives here: conjunct splitting, set-operation flattening,
"does this query block reference table X" tests, iterators over the
places predicates and subqueries can hide in a SELECT core, and the
recursion-safety predicates the planner enforces and the analyzer
reports (R001/R002).

Everything in this module is pure: no function mutates the AST it walks.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

from repro.sqldb import ast_nodes as ast
from repro.sqldb.expressions import contains_aggregate

#: A query body is either a single SELECT core or a set-operation tree.
Body = Union[ast.SelectCore, ast.SetOperation]

#: Expression wrappers that carry a nested SELECT statement.
SUBQUERY_NODES = (ast.ExistsTest, ast.InSubquery, ast.ScalarSubquery)


def split_conjuncts(expression: Optional[ast.Expression]) -> List[ast.Expression]:
    """Split a predicate on top-level ANDs."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.operator == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def flatten_set_operations(body: Body) -> Tuple[List[ast.SelectCore], List[str]]:
    """Flatten a set-operation tree into branch/operator lists:
    ``a UNION b UNION ALL c`` -> ([a, b, c], ["UNION", "UNION ALL"])."""
    if isinstance(body, ast.SelectCore):
        return [body], []
    left_branches, left_ops = flatten_set_operations(body.left)
    right_branches, right_ops = flatten_set_operations(body.right)
    return (
        left_branches + right_branches,
        left_ops + [body.operator] + right_ops,
    )


def iter_from_leaves(
    item: ast.FromItem,
) -> Iterator[Union[ast.TableRef, ast.SubqueryRef]]:
    """Yield the leaf relations (tables and derived tables) of a FROM item,
    descending through join trees."""
    if isinstance(item, ast.Join):
        yield from iter_from_leaves(item.left)
        yield from iter_from_leaves(item.right)
    else:
        yield item  # type: ignore[misc]


def iter_join_conditions(item: ast.FromItem) -> Iterator[ast.Expression]:
    """Yield every ON condition inside a FROM item's join tree."""
    if isinstance(item, ast.Join):
        yield from iter_join_conditions(item.left)
        yield from iter_join_conditions(item.right)
        if item.condition is not None:
            yield item.condition


def core_predicates(core: ast.SelectCore) -> List[Tuple[str, ast.Expression]]:
    """Every predicate conjunct of a SELECT core as (clause, conjunct)
    pairs; clause is ``"on"``, ``"where"`` or ``"having"``."""
    predicates: List[Tuple[str, ast.Expression]] = []
    for item in core.from_items:
        for condition in iter_join_conditions(item):
            predicates.extend(("on", c) for c in split_conjuncts(condition))
    predicates.extend(("where", c) for c in split_conjuncts(core.where))
    predicates.extend(("having", c) for c in split_conjuncts(core.having))
    return predicates


def core_expressions(core: ast.SelectCore) -> Iterator[ast.Expression]:
    """Every top-level expression of a SELECT core: select-list items,
    join conditions, WHERE, GROUP BY keys and HAVING."""
    for select_item in core.items:
        if isinstance(select_item, ast.SelectItem):
            yield select_item.expression
    for item in core.from_items:
        yield from iter_join_conditions(item)
    if core.where is not None:
        yield core.where
    for key in core.group_by:
        yield key
    if core.having is not None:
        yield core.having


def constantish(expression: ast.Expression) -> bool:
    """True when *expression* involves no columns and no subqueries — it
    evaluates to the same value for every candidate row (literals,
    parameters, arithmetic over them, function calls on constants).

    This is the analyzer's shared notion of "the other side of a
    sargable comparison"; the rule modules used to carry three identical
    private copies of it.
    """
    for node in ast.walk_expression(expression):
        if isinstance(
            node,
            (ast.ColumnRef, ast.ExistsTest, ast.InSubquery, ast.ScalarSubquery),
        ):
            return False
    return True


def iter_subqueries(
    expression: ast.Expression,
) -> Iterator[Tuple[ast.Expression, ast.SelectStatement]]:
    """Yield (wrapper node, nested statement) for every subquery wrapper
    reachable in *expression* (without descending into the subqueries)."""
    for node in ast.walk_expression(expression):
        if isinstance(node, SUBQUERY_NODES):
            yield node, node.subquery


def expression_references(expression: ast.Expression, wanted: str) -> bool:
    """True if a subquery inside *expression* references table *wanted*."""
    for __, subquery in iter_subqueries(expression):
        if statement_references(subquery, wanted):
            return True
    return False


def core_references(core: ast.SelectCore, table_name: str) -> bool:
    """True if *core* references *table_name* anywhere (FROM items, join
    trees, subqueries in any clause)."""
    wanted = table_name.lower()

    def from_item_references(item: ast.FromItem) -> bool:
        if isinstance(item, ast.TableRef):
            return item.name.lower() == wanted
        if isinstance(item, ast.SubqueryRef):
            return statement_references(item.subquery, wanted)
        if isinstance(item, ast.Join):
            if from_item_references(item.left) or from_item_references(item.right):
                return True
            if item.condition is not None and expression_references(
                item.condition, wanted
            ):
                return True
            return False
        return False

    for item in core.from_items:
        if from_item_references(item):
            return True
    for clause in (core.where, core.having):
        if clause is not None and expression_references(clause, wanted):
            return True
    for select_item in core.items:
        if isinstance(select_item, ast.SelectItem) and expression_references(
            select_item.expression, wanted
        ):
            return True
    return False


def statement_references(statement: ast.SelectStatement, wanted: str) -> bool:
    """True if any core of *statement* (CTE bodies included) references
    table *wanted*."""
    branches, __ = flatten_set_operations(statement.body)
    if statement.with_clause is not None:
        for cte in statement.with_clause.ctes:
            cte_branches, __ = flatten_set_operations(cte.body)
            if any(core_references(branch, wanted) for branch in cte_branches):
                return True
    return any(core_references(branch, wanted) for branch in branches)


def count_table_refs(core: ast.SelectCore, table_name: str) -> int:
    """How many times *core* refers to *table_name*: FROM leaves plus
    references inside nested subqueries (any clause).  The SQL:1999
    linear-recursion rule is "at most once per recursive branch", so the
    analyzer needs a count, not just a boolean."""
    wanted = table_name.lower()

    def count_from_item(item: ast.FromItem) -> int:
        if isinstance(item, ast.TableRef):
            return 1 if item.name.lower() == wanted else 0
        if isinstance(item, ast.SubqueryRef):
            return count_statement_refs(item.subquery, wanted)
        if isinstance(item, ast.Join):
            # ON conditions are covered by core_expressions below.
            return count_from_item(item.left) + count_from_item(item.right)
        return 0

    total = sum(count_from_item(item) for item in core.from_items)
    for expression in core_expressions(core):
        for __, subquery in iter_subqueries(expression):
            total += count_statement_refs(subquery, wanted)
    return total


def branch_aggregates(branch: ast.SelectCore) -> bool:
    """True if *branch* itself groups or aggregates (subqueries excluded —
    ``walk_expression`` does not descend into them).  In a recursive
    branch that is non-monotonic: the fixpoint has no defined answer."""
    if branch.group_by or branch.having is not None:
        return True
    return any(
        isinstance(item, ast.SelectItem) and contains_aggregate(item.expression)
        for item in branch.items
    )


def negates_cte(conjunct: ast.Expression, cte_name: str) -> bool:
    """True if *conjunct* tests membership in *cte_name* under negation
    (``NOT EXISTS`` / ``NOT IN`` / ``NOT (...)`` around a subquery)."""
    for wrapper, subquery in iter_subqueries(conjunct):
        negated = isinstance(
            wrapper, (ast.ExistsTest, ast.InSubquery)
        ) and wrapper.negated
        if negated and statement_references(subquery, cte_name):
            return True
    for node in ast.walk_expression(conjunct):
        if isinstance(node, ast.UnaryOp) and node.operator == "NOT":
            for __, subquery in iter_subqueries(node.operand):
                if statement_references(subquery, cte_name):
                    return True
    return False


def referenced_tables(statement: ast.SelectStatement) -> List[str]:
    """Lowercased names of every base relation *statement* references —
    FROM leaves through join trees, derived tables, subqueries in any
    clause, and CTE bodies — with CTE names themselves excluded.

    This is the lock footprint of a SELECT: the tables a table-level
    shared lock must cover (views are expanded by the database, which
    owns the view registry).
    """
    found: set = set()

    def walk_statement(stmt: ast.SelectStatement, outer_ctes: frozenset) -> None:
        ctes = set(outer_ctes)
        if stmt.with_clause is not None:
            for cte in stmt.with_clause.ctes:
                # Add before walking the body: recursive CTEs reference
                # themselves, and that self-reference is not a table.
                ctes.add(cte.name.lower())
                for branch in flatten_set_operations(cte.body)[0]:
                    walk_core(branch, frozenset(ctes))
        for branch in flatten_set_operations(stmt.body)[0]:
            walk_core(branch, frozenset(ctes))

    def walk_core(core: ast.SelectCore, ctes: frozenset) -> None:
        for item in core.from_items:
            for leaf in iter_from_leaves(item):
                if isinstance(leaf, ast.TableRef):
                    name = leaf.name.lower()
                    if name not in ctes:
                        found.add(name)
                elif isinstance(leaf, ast.SubqueryRef):
                    walk_statement(leaf.subquery, ctes)
        for expression in core_expressions(core):
            for __, subquery in iter_subqueries(expression):
                walk_statement(subquery, ctes)

    walk_statement(statement, frozenset())
    return sorted(found)


def count_statement_refs(statement: ast.SelectStatement, wanted: str) -> int:
    """Total reference count of table *wanted* across every core of
    *statement*, CTE bodies included."""
    total = 0
    if statement.with_clause is not None:
        for cte in statement.with_clause.ctes:
            for branch in flatten_set_operations(cte.body)[0]:
                total += count_table_refs(branch, wanted)
    for branch in flatten_set_operations(statement.body)[0]:
        total += count_table_refs(branch, wanted)
    return total
