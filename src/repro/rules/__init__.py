"""Rules and conditions of the PDM system (paper Section 3) and their
translation into SQL (Sections 4.1, 5.3) plus the query modificator
(Section 5.5).

The packages split responsibilities exactly along the paper's pipeline:

* :mod:`repro.rules.conditions` — the condition taxonomy of Figure 1
  (row conditions; ∀rows, ∃structure and tree-aggregate tree conditions).
* :mod:`repro.rules.model` — rules as (user, action, object type,
  condition) 4-tuples.
* :mod:`repro.rules.translate` — conditions → SQL predicate ASTs.
* :mod:`repro.rules.evaluate` — *late* (client-side) evaluation: the
  translated predicate, compiled by :mod:`repro.sqldb.expressions` and
  run on fetched objects, so late and early evaluation share one
  semantics.
* :mod:`repro.rules.ruletable` — the client-side table of translated
  conditions consulted by the query modificator.
* :mod:`repro.rules.modificator` — steps A-D of Section 5.5: inject the
  translated predicates into the right WHERE clauses of a structured
  query spec.
"""

from repro.rules.conditions import (
    And,
    Apply,
    Attribute,
    Comparison,
    Condition,
    ConditionClass,
    Const,
    ExistsStructure,
    ForAllRows,
    Not,
    Or,
    TreeAggregate,
    UserVar,
    classify,
)
from repro.rules.configuration import (
    Configurator,
    ExactlyOneOf,
    Excludes,
    OptionCatalog,
    Requires,
)
from repro.rules.model import Actions, Rule
from repro.rules.modificator import QueryModificator
from repro.rules.presets import (
    checkout_all_checked_in_rule,
    effectivity_rule,
    make_not_buy_rule,
    structure_option_rules,
)
from repro.rules.ruletable import RuleTable

__all__ = [
    "Attribute",
    "Const",
    "UserVar",
    "Apply",
    "Comparison",
    "And",
    "Or",
    "Not",
    "ForAllRows",
    "ExistsStructure",
    "TreeAggregate",
    "Condition",
    "ConditionClass",
    "classify",
    "Rule",
    "Actions",
    "RuleTable",
    "QueryModificator",
    "OptionCatalog",
    "Configurator",
    "Excludes",
    "Requires",
    "ExactlyOneOf",
    "structure_option_rules",
    "effectivity_rule",
    "checkout_all_checked_in_rule",
    "make_not_buy_rule",
]
