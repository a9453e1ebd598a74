"""The query modificator — paper Section 5.5, steps A-D.

The modificator operates on a *structured* query spec, not on SQL text:
every SELECT block of the recursive query carries metadata (which PDM
object type it retrieves, which tables its FROM clause refers to, whether
it sits inside the recursive part).  Steps A-D then append the translated
rule predicates to exactly the WHERE clauses the paper prescribes:

* **A** ∀rows conditions       → outer SELECTs (all-or-nothing).
* **B** tree-aggregate conditions → outer SELECTs.
* **C** ∃structure conditions  → recursive-part SELECTs referring to the
  condition's object type O (grouped and OR-combined per type).
* **D** row conditions          → every SELECT, inside or outside, whose
  FROM clause refers to the condition's object type.

The remark at the end of Section 5.5 — combining ∃structure with ∀rows
conditions forces the ∃structure probes *outside* the recursion, against
the homogenised result with a type discriminator — is implemented as the
``ExistsPlacement.OUTSIDE`` mode.  Finally, a query hidden behind a view
(:class:`OpaqueQuery`) cannot be modified at all; the modificator raises
:class:`QueryModificationError`, as the paper anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.errors import QueryModificationError
from repro.rules.conditions import ConditionClass
from repro.rules.model import Rule
from repro.rules.ruletable import RuleTable
from repro.rules.translate import and_append, disjunction
from repro.sqldb import ast_nodes as ast


class BlockRole(Enum):
    """Position of a SELECT block within the recursive query."""

    SEED = "seed"  # non-recursive branch of the CTE
    RECURSIVE = "recursive"  # recursive branch of the CTE
    OUTER_NODES = "outer-nodes"  # outer SELECT over the homogenised CTE
    OUTER_LINKS = "outer-links"  # outer SELECT retrieving link objects


@dataclass
class SelectBlock:
    """One SELECT of the overall query, with modification metadata.

    ``tables`` maps lowercase table names appearing in this block's FROM
    clause to the alias under which attribute references must be qualified
    (paper step D: "refer to t in their FROM clause").
    ``object_type`` is the PDM type this block *retrieves* (step C).
    """

    core: ast.SelectCore
    role: BlockRole
    object_type: Optional[str] = None
    tables: Dict[str, str] = field(default_factory=dict)

    def append_predicate(self, predicate: ast.Expression) -> None:
        self.core.where = and_append(self.core.where, predicate)


@dataclass
class RecursiveQuerySpec:
    """A structured recursive tree query (paper Section 5.2 shape)."""

    cte_name: str
    columns: List[str]
    root_type: str
    seed_blocks: List[SelectBlock] = field(default_factory=list)
    recursive_blocks: List[SelectBlock] = field(default_factory=list)
    outer_blocks: List[SelectBlock] = field(default_factory=list)
    order_by: List[ast.OrderItem] = field(default_factory=list)

    def all_blocks(self) -> List[SelectBlock]:
        return self.seed_blocks + self.recursive_blocks + self.outer_blocks

    def to_statement(self) -> ast.SelectStatement:
        """Assemble the final SELECT statement (UNION-combined)."""
        cte_body = _union_chain(
            [block.core for block in self.seed_blocks + self.recursive_blocks]
        )
        outer_body = _union_chain([block.core for block in self.outer_blocks])
        return ast.SelectStatement(
            body=outer_body,
            with_clause=ast.WithClause(
                recursive=True,
                ctes=[
                    ast.CommonTableExpr(
                        name=self.cte_name,
                        columns=list(self.columns),
                        body=cte_body,
                    )
                ],
            ),
            order_by=list(self.order_by),
        )


@dataclass
class NavigationalQuerySpec:
    """A navigational (single-step) query: one or more UNION ALL blocks.

    Used by approach 1 (Section 4.1) where only row conditions can be
    evaluated early.
    """

    blocks: List[SelectBlock] = field(default_factory=list)
    order_by: List[ast.OrderItem] = field(default_factory=list)

    def to_statement(self) -> ast.SelectStatement:
        body = _union_chain(
            [block.core for block in self.blocks], operator="UNION ALL"
        )
        return ast.SelectStatement(body=body, order_by=list(self.order_by))


@dataclass(frozen=True)
class OpaqueQuery:
    """A query whose structure is hidden (e.g. behind a view).

    "As the query structure is not visible to the query modificator, the
    proposed modifications cannot be performed." (Section 5.5)
    """

    sql: str
    description: str = "view"


class ExistsPlacement(Enum):
    """Where step C puts ∃structure probes (see module docstring)."""

    INSIDE = "inside"  # filter during recursion: invisible subtrees pruned
    OUTSIDE = "outside"  # filter the homogenised result after recursion


class QueryModificator:
    """Applies the relevant rules of one user to query specs."""

    def __init__(
        self,
        rule_table: RuleTable,
        user: str,
        user_env: Optional[Dict[str, object]] = None,
    ) -> None:
        self.rule_table = rule_table
        self.user = user
        self.user_env = dict(user_env or {})

    # -- public API --------------------------------------------------------

    def modify_recursive(
        self,
        spec,
        action: str,
        exists_placement: ExistsPlacement = ExistsPlacement.INSIDE,
    ) -> "RecursiveQuerySpec":
        """Apply steps A-D to a recursive query spec (mutates and returns
        it).  Raises :class:`QueryModificationError` for opaque queries."""
        if isinstance(spec, OpaqueQuery):
            raise QueryModificationError(
                f"cannot modify a query hidden in a {spec.description}: "
                f"its structure is not visible to the query modificator"
            )
        self._apply_forall(spec, action)  # step A
        self._apply_tree_aggregates(spec, action)  # step B
        self._apply_exists_structure(spec, action, exists_placement)  # step C
        self._apply_row_conditions(spec.all_blocks(), action)  # step D
        return spec

    def modify_navigational(self, spec, action: str) -> "NavigationalQuerySpec":
        """Approach 1 (Section 4.1): only row conditions are folded into a
        navigational query — arbitrary tree conditions cannot be evaluated
        within a single-step query."""
        if isinstance(spec, OpaqueQuery):
            raise QueryModificationError(
                f"cannot modify a query hidden in a {spec.description}"
            )
        self._apply_row_conditions(spec.blocks, action)
        return spec

    # -- steps A-D -----------------------------------------------------------

    def _tree_rules(
        self, spec: RecursiveQuerySpec, action: str, condition_class: ConditionClass
    ) -> List[Rule]:
        return self.rule_table.relevant(
            self.user, action, spec.root_type, condition_class
        )

    def _apply_forall(self, spec: RecursiveQuerySpec, action: str) -> None:
        rules = self._tree_rules(spec, action, ConditionClass.FORALL_ROWS)
        if not rules:
            return
        predicates = [
            self.rule_table.translated(rule, self.user_env).forall_predicate(
                spec.cte_name
            )
            for rule in rules
        ]
        combined = disjunction(predicates)
        for block in spec.outer_blocks:
            block.append_predicate(combined)

    def _apply_tree_aggregates(self, spec: RecursiveQuerySpec, action: str) -> None:
        rules = self._tree_rules(spec, action, ConditionClass.TREE_AGGREGATE)
        if not rules:
            return
        predicates = [
            self.rule_table.translated(rule, self.user_env).aggregate_predicate(
                spec.cte_name
            )
            for rule in rules
        ]
        combined = disjunction(predicates)
        for block in spec.outer_blocks:
            block.append_predicate(combined)

    def _apply_exists_structure(
        self,
        spec: RecursiveQuerySpec,
        action: str,
        placement: ExistsPlacement,
    ) -> None:
        rules = self._tree_rules(spec, action, ConditionClass.EXISTS_STRUCTURE)
        if not rules:
            return
        # Step C.8: group the conditions by the object type O they test.
        by_type: Dict[str, List[Rule]] = {}
        for rule in rules:
            by_type.setdefault(rule.condition.object_type.lower(), []).append(rule)
        if placement is ExistsPlacement.INSIDE:
            for object_type, group in by_type.items():
                for block in spec.seed_blocks + spec.recursive_blocks:
                    if (block.object_type or "").lower() != object_type:
                        continue
                    alias = block.tables.get(object_type, object_type)
                    predicates = [
                        self.rule_table.translated(
                            rule, self.user_env
                        ).exists_predicate(alias)
                        for rule in group
                    ]
                    block.append_predicate(disjunction(predicates))
            return
        # OUTSIDE placement (the Section 5.5 remark): the probes move to the
        # outer node SELECT, correlate on the homogenised CTE columns and
        # must consider the type discriminator of the result tuples.
        for block in spec.outer_blocks:
            if block.role is not BlockRole.OUTER_NODES:
                continue
            cte_alias = block.tables.get(spec.cte_name.lower(), spec.cte_name)
            for object_type, group in by_type.items():
                probes = [
                    self.rule_table.translated(rule, self.user_env).exists_predicate(
                        cte_alias
                    )
                    for rule in group
                ]
                guarded = ast.BinaryOp(
                    operator="OR",
                    left=ast.BinaryOp(
                        operator="<>",
                        left=ast.ColumnRef(name="type", qualifier=None),
                        right=ast.Literal(value=object_type),
                    ),
                    right=disjunction(probes),
                )
                block.append_predicate(guarded)

    def _apply_row_conditions(self, blocks: List[SelectBlock], action: str) -> None:
        # Step D.11: row conditions for any object type occurring in the
        # query; access rules apply regardless of the action (handled by
        # Rule.matches, which treats 'access' as always-relevant).
        for block in blocks:
            for table_name, alias in block.tables.items():
                rules = self.rule_table.relevant(
                    self.user, action, table_name, ConditionClass.ROW
                )
                if not rules:
                    continue
                predicates = [
                    self.rule_table.translated(rule, self.user_env).row_predicate(
                        alias
                    )
                    for rule in rules
                ]
                block.append_predicate(disjunction(predicates))


def _union_chain(cores: List[ast.SelectCore], operator: str = "UNION"):
    """Combine SELECT cores with a left-associated set-operation chain."""
    if not cores:
        raise QueryModificationError("query spec has no SELECT blocks")
    body = cores[0]
    for core in cores[1:]:
        body = ast.SetOperation(operator=operator, left=body, right=core)
    return body
