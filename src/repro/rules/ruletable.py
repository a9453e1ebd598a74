"""The client-side rule table (paper Section 5.5).

Rules are introduced by administrators; their conditions are translated
into the SQL-conformal representation *once* ("directly after the
definition of a new rule", Section 4.1) and stored — here per user
environment, because user variables are bound into the translation.  The
query modificator then only reads translated predicates out of the table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuleError
from repro.rules import translate
from repro.rules.conditions import ConditionClass
from repro.rules.model import Rule
from repro.sqldb import ast_nodes as ast
from repro.sqldb.render import render_expression


class TranslatedRule:
    """A rule plus its pre-translated SQL predicate pieces.

    For row conditions ``predicate_for(alias)`` re-qualifies the stored
    translation; tree conditions are translated against the CTE name when
    the modificator runs (the CTE name is a property of the query, not of
    the rule).
    """

    def __init__(self, rule: Rule, user_env: Dict[str, object]) -> None:
        self.rule = rule
        self.user_env = dict(user_env)
        self.condition_class = rule.condition_class
        #: Display form stored alongside, as the paper suggests keeping the
        #: translated representation in a client-side table.
        if self.condition_class is ConditionClass.ROW:
            self.sql_text = render_expression(
                translate.translate_row_condition(
                    rule.condition, rule.object_type, self.user_env
                )
            )
        else:
            self.sql_text = f"<{self.condition_class.value}>"

    def row_predicate(self, qualifier: Optional[str]) -> ast.Expression:
        """Translated row-condition predicate under a given table alias."""
        if self.condition_class is not ConditionClass.ROW:
            raise RuleError("rule does not hold a row condition")
        return translate.translate_row_condition(
            self.rule.condition, qualifier, self.user_env
        )

    def forall_predicate(self, cte_name: str) -> ast.Expression:
        if self.condition_class is not ConditionClass.FORALL_ROWS:
            raise RuleError("rule does not hold a forall-rows condition")
        return translate.translate_forall(
            self.rule.condition, cte_name, self.user_env
        )

    def aggregate_predicate(self, cte_name: str) -> ast.Expression:
        if self.condition_class is not ConditionClass.TREE_AGGREGATE:
            raise RuleError("rule does not hold a tree-aggregate condition")
        return translate.translate_tree_aggregate(
            self.rule.condition, cte_name, self.user_env
        )

    def exists_predicate(self, object_alias: str) -> ast.Expression:
        if self.condition_class is not ConditionClass.EXISTS_STRUCTURE:
            raise RuleError("rule does not hold an exists-structure condition")
        return translate.translate_exists_structure(
            self.rule.condition, object_alias
        )


class RuleTable:
    """All rules known to one client, with translation caching per user."""

    def __init__(self, rules: Sequence[Rule] = ()) -> None:
        self._rules: List[Rule] = []
        self._translated: Dict[Tuple[int, Tuple[Tuple[str, object], ...]], TranslatedRule] = {}
        self._relevant: Dict[Tuple[str, str, str, Optional[ConditionClass]], List[Rule]] = {}
        #: Bumped by every :meth:`add` and :meth:`remove`: whatever a client
        #: derives from the rules (rendered SQL, compiled checks) is keyed
        #: on it, so a change to the table is never served stale.
        self.generation = 0
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        """Register a new rule (administrator action, Section 5.5)."""
        self._rules.append(rule)
        self._changed()

    def remove(self, rule: Rule) -> None:
        self._rules.remove(rule)
        self._translated = {
            key: value
            for key, value in self._translated.items()
            if value.rule is not rule
        }
        self._changed()

    def _changed(self) -> None:
        self.generation += 1
        self._relevant.clear()

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def relevant(
        self,
        user: str,
        action: str,
        object_type: str,
        condition_class: Optional[ConditionClass] = None,
    ) -> List[Rule]:
        """Rules relevant for (user, action, object type) — paper footnote
        9 — optionally filtered by condition class (the "flag" that
        "qualifies the different condition types", Section 5.5).  The
        answer is remembered until the table changes."""
        key = (user, action, object_type.lower(), condition_class)
        rules = self._relevant.get(key)
        if rules is None:
            rules = self._relevant[key] = [
                rule
                for rule in self._rules
                if rule.matches(user, action, object_type)
                and (condition_class is None or rule.condition_class is condition_class)
            ]
        return list(rules)

    def translated(
        self, rule: Rule, user_env: Dict[str, object]
    ) -> TranslatedRule:
        """The (cached) translated form of *rule* under *user_env*."""
        key = (id(rule), tuple(sorted(user_env.items())))
        cached = self._translated.get(key)
        if cached is None:
            cached = TranslatedRule(rule, user_env)
            self._translated[key] = cached
        return cached

    def object_types(self) -> List[str]:
        """All object types any rule refers to."""
        return sorted({rule.object_type.lower() for rule in self._rules})
