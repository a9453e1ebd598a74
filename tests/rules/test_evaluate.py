"""Late (client-side) rule evaluation: the compiled early predicate, run
on fetched objects."""

import pytest

from repro.bench.workload import build_scenario
from repro.errors import ExecutionError, RuleError, TypeMismatchError
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_512
from repro.pdm.generator import figure2_dataset
from repro.pdm.operations import ExpandStrategy
from repro.pdm.schema import register_stored_functions
from repro.rules.conditions import (
    And,
    Apply,
    Attribute,
    BoolFunction,
    Comparison,
    Const,
    ExistsStructure,
    ForAllRows,
    Not,
    Or,
    TreeAggregate,
    UserVar,
)
from repro.rules.evaluate import RowCheck, aggregate_holds, forall_holds
from repro.rules.model import Actions, Rule
from repro.rules.ruletable import RuleTable
from repro.sqldb.executor import ExecutionEnv
from repro.sqldb.functions import FunctionRegistry

USER_ENV = {"user_options": 1, "unit": 5}
ENV = ExecutionEnv(functions=register_stored_functions(FunctionRegistry()))

ASSY = {"type": "assy", "obid": 1, "make_or_buy": "make", "weight": 2.0,
        "checkedout": False, "strc_opt": 1}
BOUGHT = {"type": "assy", "obid": 2, "make_or_buy": "buy", "weight": 5.0,
          "checkedout": True, "strc_opt": 2}
COMP = {"type": "comp", "obid": 101, "weight": 0.5, "checkedout": False,
        "strc_opt": 1}


def value(condition, attrs, user_env=USER_ENV):
    """The SQL value of one row condition on one object."""
    return RowCheck([condition], user_env).value(attrs, ENV)


class TestTerms:
    def test_attribute(self):
        assert value(Comparison("=", Attribute("weight"), Const(2.0)), ASSY) is True

    def test_missing_attribute_raises(self):
        with pytest.raises(RuleError):
            value(Comparison("=", Attribute("missing"), Const(1)), ASSY)

    def test_const(self):
        assert value(Comparison("=", Const(7), Const(7)), {}) is True

    def test_user_var(self):
        assert value(Comparison("=", UserVar("unit"), Const(5)), {}) is True

    def test_missing_user_var_raises(self):
        with pytest.raises(RuleError):
            value(Comparison("=", UserVar("nope"), Const(5)), {})

    def test_function_application(self):
        term = Apply("options_overlap", (Attribute("strc_opt"), Const(3)))
        assert value(Comparison("=", term, Const(True)), ASSY) is True

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            value(BoolFunction("mystery", ()), {})


class TestRowConditions:
    def test_paper_example_1(self):
        condition = Comparison("<>", Attribute("make_or_buy"), Const("buy"))
        assert value(condition, ASSY) is True
        assert value(condition, BOUGHT) is False

    def test_null_comparison_is_false(self):
        """A comparison with NULL is UNKNOWN, which does not admit; NOT
        keeps it UNKNOWN, as in a WHERE clause."""
        condition = Comparison("=", Attribute("state"), Const("x"))
        unknown = {"type": "t", "state": None}
        assert value(condition, unknown) is None
        assert value(Not(condition), unknown) is None

    def test_boolean_operators(self):
        both = And(
            Comparison(">", Attribute("weight"), Const(1)),
            Comparison("<", Attribute("weight"), Const(3)),
        )
        assert value(both, ASSY) is True
        assert value(both, BOUGHT) is False
        either = Or(
            Comparison("=", Attribute("make_or_buy"), Const("buy")),
            Comparison("=", Attribute("make_or_buy"), Const("make")),
        )
        assert value(either, ASSY) is True
        assert value(Not(both), BOUGHT) is True

    def test_stored_function_condition(self):
        condition = BoolFunction(
            "options_overlap", (Attribute("strc_opt"), UserVar("user_options"))
        )
        assert value(condition, ASSY) is True
        assert value(condition, BOUGHT) is False
        assert value(condition, dict(ASSY, strc_opt=None)) is None

    def test_mixed_kind_comparison_is_a_type_error(self):
        condition = Comparison("=", Attribute("make_or_buy"), Const(5))
        with pytest.raises(TypeMismatchError):
            value(condition, ASSY)

    def test_tree_condition_rejected(self):
        with pytest.raises(RuleError):
            RowCheck([ForAllRows(Comparison("=", Attribute("a"), Const(1)))], {})


class TestObjectPermitted:
    def rule(self, condition, **kw):
        defaults = dict(user="*", action=Actions.ACCESS, object_type="assy")
        defaults.update(kw)
        return Rule(condition=condition, **defaults)

    def permitted(self, scenario, rules, attrs, default_permit=True):
        client = scenario.fresh_client(
            rule_table=RuleTable(rules), default_permit=default_permit
        )
        return client._permitted(attrs, Actions.QUERY)

    def test_no_rules_default_permit(self, tiny_scenario):
        assert self.permitted(tiny_scenario, [], ASSY)

    def test_no_rules_strict_mode_denies(self, tiny_scenario):
        assert not self.permitted(tiny_scenario, [], ASSY, default_permit=False)
        # A rule on another type leaves the default in charge.
        rules = [self.rule(Comparison(">", Attribute("weight"), Const(0)))]
        assert self.permitted(tiny_scenario, rules, ASSY, default_permit=False)
        assert not self.permitted(tiny_scenario, rules, COMP, default_permit=False)

    def test_single_rule(self, tiny_scenario):
        rules = [self.rule(Comparison("<>", Attribute("make_or_buy"), Const("buy")))]
        assert self.permitted(tiny_scenario, rules, ASSY)
        assert not self.permitted(tiny_scenario, rules, BOUGHT)

    def test_rules_combine_with_or(self, tiny_scenario):
        # Paper 4.1: qualifying conditions are connected via OR.
        rules = [
            self.rule(Comparison("=", Attribute("make_or_buy"), Const("lease"))),
            self.rule(Comparison(">", Attribute("weight"), Const(4))),
        ]
        assert self.permitted(tiny_scenario, rules, BOUGHT)  # second rule permits
        assert not self.permitted(tiny_scenario, rules, ASSY)


def forall(condition, nodes):
    return forall_holds(condition, nodes, ENV, USER_ENV)


def aggregate(condition, nodes):
    return aggregate_holds(condition, nodes, ENV, USER_ENV)


class TestTreeConditions:
    def test_forall_all_pass(self):
        condition = ForAllRows(Comparison("=", Attribute("checkedout"), Const(False)))
        assert forall(condition, [ASSY, COMP])

    def test_forall_one_violation_fails(self):
        condition = ForAllRows(Comparison("=", Attribute("checkedout"), Const(False)))
        assert not forall(condition, [ASSY, BOUGHT])

    def test_forall_unknown_node_does_not_fail(self):
        """``NOT EXISTS (... WHERE NOT cond)``: only FALSE violates."""
        condition = ForAllRows(Comparison("=", Attribute("checkedout"), Const(False)))
        assert forall(condition, [ASSY, dict(COMP, checkedout=None)])

    def test_forall_type_filter_skips_other_types(self):
        condition = ForAllRows(
            Comparison("=", Attribute("make_or_buy"), Const("make")),
            object_type="assy",
        )
        # The comp lacks make_or_buy, but the type filter never reads it.
        assert forall(condition, [ASSY, {"type": "comp", "obid": 9}])

    def test_forall_empty_tree_holds(self):
        condition = ForAllRows(Comparison("=", Attribute("checkedout"), Const(False)))
        assert forall(condition, [])

    def test_tree_aggregate_count(self):
        condition = TreeAggregate("COUNT", None, "<=", Const(2), object_type="assy")
        assert aggregate(condition, [ASSY, BOUGHT, COMP])
        condition_tight = TreeAggregate("COUNT", None, "<=", Const(1), object_type="assy")
        assert not aggregate(condition_tight, [ASSY, BOUGHT, COMP])

    def test_tree_aggregate_avg(self):
        condition = TreeAggregate("AVG", "weight", "<=", Const(3))
        assert aggregate(condition, [ASSY, COMP])  # avg 1.25
        assert not aggregate(condition, [BOUGHT, BOUGHT])

    def test_tree_aggregate_sum_min_max(self):
        nodes = [ASSY, BOUGHT, COMP]
        assert aggregate(TreeAggregate("SUM", "weight", ">", Const(7)), nodes)
        assert aggregate(TreeAggregate("MIN", "weight", "=", Const(0.5)), nodes)
        assert aggregate(TreeAggregate("MAX", "weight", "=", Const(5.0)), nodes)

    def test_aggregate_over_empty_set_fails(self):
        """An empty set aggregates to NULL, which compares UNKNOWN; only
        COUNT yields a number (0)."""
        assert not aggregate(TreeAggregate("AVG", "weight", "<=", Const(100)), [])
        assert not aggregate(TreeAggregate("COUNT", None, ">=", Const(1)), [])
        assert aggregate(TreeAggregate("COUNT", None, "<=", Const(0)), [])

    def test_exists_structure_uses_resolver(self, monkeypatch):
        """Late ∃structure asks the server through
        ``PDMClient._related_exists``: Figure 2's component 102 has no
        specification and disappears."""
        rule = Rule(
            user="*",
            action=Actions.MULTI_LEVEL_EXPAND,
            object_type="assy",
            condition=ExistsStructure("comp", "specified_by", "spec"),
        )
        scenario = build_scenario(
            TreeParameters(depth=2, branching=2, visibility=1.0),
            WAN_512,
            product=figure2_dataset(),
            rule_table=RuleTable([rule]),
        )
        client = scenario.client
        probes = []
        resolve = client._related_exists

        def related(obid, relation, target):
            probes.append((obid, relation, target))
            return resolve(obid, relation, target)

        monkeypatch.setattr(client, "_related_exists", related)
        tree = client.multi_level_expand(
            1,
            ExpandStrategy.NAVIGATIONAL_LATE,
            root_attrs=scenario.product.root_attributes(),
        ).tree
        assert sorted(probes) == [
            (obid, "specified_by", "spec") for obid in (101, 102, 103, 104)
        ]
        assert tree.obids() == {1, 2, 3, 4, 5, 101, 103, 104}
