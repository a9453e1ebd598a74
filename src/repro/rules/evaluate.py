"""Late (client-side) rule evaluation: the early predicate, run on the
fetched objects.

The navigational baseline of the paper ships whole result sets to the
client and filters there (Table 2); early evaluation appends the same
rules to the WHERE clauses instead (Tables 3 and 4).  Both run one
translation.  A row condition is translated by
:func:`repro.rules.translate.translate_row_condition` — the predicate the
query modificator injects — and compiled by
:func:`repro.sqldb.expressions.compile_expression` against a one-binding
scope of the attributes it reads.  An object is then tested the way the
engine's ``Filter`` tests a row: the same comparisons, the same
three-valued ``NOT`` / ``AND`` / ``OR``, the stored functions called
through a :class:`~repro.sqldb.functions.FunctionRegistry`, and only TRUE
admits.  Late and early evaluation therefore agree by construction; the
independent checks are the generator's ``visible_obids`` and SQLite.

Rule combination (Sections 3.1 and 4.1): rules *permit*; the relevant
rules of a (user, action, type) combine by OR; with no relevant rule the
caller's default applies.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

from repro.errors import RuleError
from repro.rules import conditions as cond
from repro.rules import translate
from repro.sqldb import ast_nodes as ast
from repro.sqldb.expressions import (
    CompileContext,
    ExprFn,
    Frame,
    Scope,
    SlotRef,
    compile_expression,
    to_bool,
)
from repro.sqldb.functions import fold

#: An object is a plain mapping of lowercase attribute names to values;
#: ``type`` and ``obid`` are always present.
ObjectAttrs = Dict[str, Any]


def _compile(expression: ast.Expression, attributes: Sequence[str]) -> ExprFn:
    """Compile *expression* over rows holding *attributes* in order."""
    scope = Scope([(None, attributes)])
    return compile_expression(expression, CompileContext([Frame(scope)], None, None))


def _row(attrs: ObjectAttrs, attributes: Tuple[str, ...]) -> Tuple[Any, ...]:
    """The values of *attributes* on one object, as a row."""
    try:
        return tuple(map(attrs.__getitem__, attributes))
    except KeyError as missing:
        raise RuleError(
            f"object of type {attrs.get('type')!r} has no attribute "
            f"{missing.args[0]!r}"
        ) from None


class RowCheck:
    """The OR of some row conditions, translated and compiled once."""

    def __init__(
        self, conditions: Sequence[cond.Condition], user_env: translate.UserEnv
    ) -> None:
        #: The attributes the conditions read, lower-cased, in row order.
        self.attributes = tuple(
            dict.fromkeys(
                name.lower()
                for condition in conditions
                for name in cond.attributes_used(condition)
            )
        )
        predicate = translate.disjunction(
            [
                translate.translate_row_condition(condition, None, user_env)
                for condition in conditions
            ]
        )
        self._predicate = _compile(predicate, self.attributes)

    def value(self, attrs: ObjectAttrs, env) -> Any:
        """The predicate's SQL value on one object: TRUE admits it, FALSE
        and NULL (UNKNOWN) do not.  *env* is an
        :class:`~repro.sqldb.executor.ExecutionEnv` holding the stored
        functions."""
        return self._predicate(_row(attrs, self.attributes), env)


def _of_type(nodes: Iterable[ObjectAttrs], object_type) -> Iterable[ObjectAttrs]:
    """The nodes a tree condition's ``[WHERE type = 'T']`` keeps."""
    if object_type is None:
        return nodes
    return (attrs for attrs in nodes if attrs.get("type") == object_type)


def forall_holds(
    condition: cond.ForAllRows,
    nodes: Iterable[ObjectAttrs],
    env,
    user_env: translate.UserEnv,
) -> bool:
    """∀rows over a node set, as ``NOT EXISTS (SELECT * FROM tree WHERE
    [type = 'T' AND] NOT cond)``: only a node on which the row condition
    is FALSE fails it, an UNKNOWN one does not."""
    check = RowCheck([condition.row_condition], user_env)
    return not any(
        to_bool(check.value(attrs, env)) is False
        for attrs in _of_type(nodes, condition.object_type)
    )


def aggregate_holds(
    condition: cond.TreeAggregate,
    nodes: Iterable[ObjectAttrs],
    env,
    user_env: translate.UserEnv,
) -> bool:
    """Tree-aggregate over a node set, as ``(SELECT AGG(attr) FROM tree
    [WHERE type = 'T']) <op> threshold``: the engine's aggregate and
    comparison, so an empty set compares NULL (UNKNOWN) except for
    COUNT."""
    values = list(_of_type(nodes, condition.object_type))
    if condition.attribute is not None:
        attribute = (condition.attribute.lower(),)
        values = [_row(attrs, attribute)[0] for attrs in values]
    aggregate = fold(condition.function, star=condition.attribute is None)(values)
    compare = _compile(
        ast.BinaryOp(
            operator=condition.operator,
            left=SlotRef(0),
            right=translate.translate_term(condition.threshold, None, user_env),
        ),
        (),
    )
    return compare((aggregate,), env) is True
