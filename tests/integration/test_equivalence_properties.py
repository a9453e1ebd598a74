"""The central correctness property of the reproduction.

For arbitrary product trees and rule draws, the strategies must produce
the *same* result sets: late evaluation runs the compiled early predicate
on the client, early evaluation folds the same conditions into the
navigational SQL, and the recursive query folds them into one statement.
The generator's ``visible_obids`` is the independent reference.  The
paper's performance claims are only meaningful if this holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workload import build_scenario
from repro.errors import SQLError, TypeMismatchError
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_1024
from repro.pdm.operations import ExpandStrategy
from repro.pdm.structure import trees_equal
from repro.rules.conditions import (
    Attribute,
    BoolFunction,
    Comparison,
    Const,
    ForAllRows,
    Not,
    UserVar,
)
from repro.rules.model import Actions, Rule
from repro.rules.ruletable import RuleTable

tree_params = st.builds(
    TreeParameters,
    depth=st.integers(min_value=1, max_value=4),
    branching=st.integers(min_value=1, max_value=3),
    visibility=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
)


@st.composite
def scenarios(draw):
    tree = draw(tree_params)
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return build_scenario(tree, WAN_1024, seed=seed)


class TestStrategyEquivalence:
    @given(scenarios())
    @settings(max_examples=25, deadline=None)
    def test_mle_strategies_agree(self, scenario):
        root = scenario.product.root_obid
        root_attrs = scenario.product.root_attributes()
        late = scenario.client.multi_level_expand(
            root, ExpandStrategy.NAVIGATIONAL_LATE, root_attrs=root_attrs
        ).tree
        early = scenario.client.multi_level_expand(
            root, ExpandStrategy.NAVIGATIONAL_EARLY, root_attrs=root_attrs
        ).tree
        recursive = scenario.client.multi_level_expand(
            root, ExpandStrategy.RECURSIVE_EARLY, root_attrs=root_attrs
        ).tree
        batched = scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        ).tree
        assert trees_equal(late, early)
        assert trees_equal(late, recursive)
        assert trees_equal(late, batched)
        assert late.obids() == scenario.product.visible_obids

    @given(scenarios(), st.sampled_from([None, 0, 1, 2]))
    @settings(max_examples=15, deadline=None)
    def test_batched_expand_matches_navigational_at_any_depth(
        self, scenario, max_depth
    ):
        """Node-for-node property: the level-at-a-time batched expand is
        the navigational-late traversal, just pipelined — including under
        a partial-expand depth bound."""
        root = scenario.product.root_obid
        root_attrs = scenario.product.root_attributes()
        late = scenario.client.multi_level_expand(
            root,
            ExpandStrategy.NAVIGATIONAL_LATE,
            root_attrs=root_attrs,
            max_depth=max_depth,
        )
        batched = scenario.client.multi_level_expand(
            root,
            ExpandStrategy.EXPAND_BATCHED,
            root_attrs=root_attrs,
            max_depth=max_depth,
        )
        assert trees_equal(late.tree, batched.tree)
        # One batch per expanded level, never more than the tree is deep.
        bound = scenario.tree.depth if max_depth is None else max_depth
        assert batched.round_trips <= bound
        assert batched.round_trips <= late.round_trips

    @given(scenarios())
    @settings(max_examples=15, deadline=None)
    def test_query_strategies_agree(self, scenario):
        root = scenario.product.root_obid
        late = scenario.client.query(root, ExpandStrategy.NAVIGATIONAL_LATE)
        early = scenario.client.query(root, ExpandStrategy.NAVIGATIONAL_EARLY)
        assert {a["obid"] for a in late.objects} == {
            a["obid"] for a in early.objects
        }

    @given(scenarios())
    @settings(max_examples=15, deadline=None)
    def test_recursive_never_slower_in_round_trips(self, scenario):
        root = scenario.product.root_obid
        root_attrs = scenario.product.root_attributes()
        navigational = scenario.client.multi_level_expand(
            root, ExpandStrategy.NAVIGATIONAL_EARLY, root_attrs=root_attrs
        )
        recursive = scenario.client.multi_level_expand(
            root, ExpandStrategy.RECURSIVE_EARLY, root_attrs=root_attrs
        )
        assert recursive.round_trips == 1
        assert navigational.round_trips >= recursive.round_trips

    @given(
        scenarios(),
        st.sampled_from(["make", "buy"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_extra_row_rule_keeps_equivalence(self, scenario, blocked):
        """Add a second, unrelated row rule; strategies must still agree."""
        scenario.rule_table.add(
            Rule(
                user="*",
                action=Actions.ACCESS,
                object_type="assy",
                condition=Comparison("<>", Attribute("make_or_buy"), Const(blocked)),
            )
        )
        client = scenario.fresh_client()
        root = scenario.product.root_obid
        root_attrs = scenario.product.root_attributes()
        late = client.multi_level_expand(
            root, ExpandStrategy.NAVIGATIONAL_LATE, root_attrs=root_attrs
        ).tree
        recursive = client.multi_level_expand(
            root, ExpandStrategy.RECURSIVE_EARLY, root_attrs=root_attrs
        ).tree
        assert trees_equal(late, recursive)


#: The strategies a divergence case runs: late, early, recursive.
LATE_EARLY_RECURSIVE = (
    ExpandStrategy.NAVIGATIONAL_LATE,
    ExpandStrategy.NAVIGATIONAL_EARLY,
    ExpandStrategy.RECURSIVE_EARLY,
)


def expand_outcomes(rule, *updates):
    """Run *updates* on the server of a fully visible δ=2 κ=2 product,
    then expand it under *rule* alone with each of late, early and
    recursive evaluation.  Each outcome is the tree, or the type of the
    :class:`SQLError` the expand raised."""
    scenario = build_scenario(
        TreeParameters(depth=2, branching=2, visibility=1.0),
        WAN_1024,
        seed=3,
        rule_table=RuleTable([rule]),
    )
    for sql in updates:
        scenario.database.execute(sql)
    outcomes = []
    for strategy in LATE_EARLY_RECURSIVE:
        try:
            outcomes.append(
                scenario.client.multi_level_expand(
                    scenario.product.root_obid,
                    strategy,
                    root_attrs=scenario.product.root_attributes(),
                ).tree
            )
        except SQLError as error:
            outcomes.append(type(error))
    return outcomes


def assert_one_outcome(outcomes):
    late, *others = outcomes
    for other in others:
        if isinstance(late, type):
            assert other is late
        else:
            assert not isinstance(other, type), other
            assert trees_equal(late, other)
    return late


def comp_rule(condition):
    return Rule(user="*", action=Actions.ACCESS, object_type="comp", condition=condition)


class TestLateIsEarlyOnEdgeCases:
    """Rules decided by a NULL, a stored function or a type mismatch:
    each must give one tree, or one typed error, whatever the strategy."""

    def test_not_over_a_null_attribute_is_unknown(self):
        tree = assert_one_outcome(
            expand_outcomes(
                comp_rule(Not(Comparison("=", Attribute("state"), Const("frozen")))),
                "UPDATE comp SET state = NULL",
            )
        )
        assert "comp" not in tree.obids_by_type()

    def test_a_stored_function_of_null_is_null(self):
        tree = assert_one_outcome(
            expand_outcomes(
                comp_rule(
                    BoolFunction(
                        "options_overlap",
                        (Attribute("strc_opt"), UserVar("user_options")),
                    )
                ),
                "UPDATE comp SET strc_opt = NULL",
            )
        )
        assert "comp" not in tree.obids_by_type()

    def test_forall_rows_fails_only_on_false(self):
        rule = Rule(
            user="*",
            action=Actions.MULTI_LEVEL_EXPAND,
            object_type="assy",
            condition=ForAllRows(
                Comparison("=", Attribute("checkedout"), Const(False))
            ),
        )
        tree = assert_one_outcome(
            expand_outcomes(rule, "UPDATE comp SET checkedout = NULL")
        )
        assert tree is not None and "comp" in tree.obids_by_type()

    def test_a_mixed_kind_comparison_is_a_type_error(self):
        outcome = assert_one_outcome(
            expand_outcomes(comp_rule(Comparison("=", Attribute("state"), Const(5))))
        )
        assert outcome is TypeMismatchError


def permit_all(object_type):
    return Rule(
        user="*",
        action=Actions.ACCESS,
        object_type=object_type,
        condition=Comparison("=", Const(1), Const(1)),
        name=f"permit-all-{object_type}",
    )


class TestRuleTableChanges:
    """A rule added to or removed from a client's table after it has
    expanded reaches every strategy: no SQL text or compiled check built
    from the old rules is served again."""

    def trees(self, scenario):
        root = scenario.product.root_obid
        root_attrs = scenario.product.root_attributes()
        return [
            scenario.client.multi_level_expand(
                root, strategy, root_attrs=root_attrs
            ).tree
            for strategy in ExpandStrategy
        ]

    def assert_all(self, trees, obids):
        for tree in trees:
            assert trees_equal(trees[0], tree)
        assert trees[0].obids() == obids

    def scenario(self):
        return build_scenario(
            TreeParameters(depth=3, branching=3, visibility=0.6),
            WAN_1024,
            seed=5,
        )

    def test_an_added_rule_reaches_every_strategy(self):
        scenario = self.scenario()
        product = scenario.product
        every = {node.obid for node in product.assemblies + product.components}
        assert product.visible_obids < every
        self.assert_all(self.trees(scenario), product.visible_obids)
        for object_type in ("assy", "comp", "link"):
            scenario.rule_table.add(permit_all(object_type))
        self.assert_all(self.trees(scenario), every)

    def test_a_removed_rule_leaves_every_strategy(self):
        scenario = self.scenario()
        product = scenario.product
        added = [permit_all(object_type) for object_type in ("assy", "comp", "link")]
        for rule in added:
            scenario.rule_table.add(rule)
        every = {node.obid for node in product.assemblies + product.components}
        self.assert_all(self.trees(scenario), every)
        for rule in added:
            scenario.rule_table.remove(rule)
        self.assert_all(self.trees(scenario), product.visible_obids)
