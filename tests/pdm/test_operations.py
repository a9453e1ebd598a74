"""PDMClient actions: strategies, round-trip counts, rule filtering."""

import pytest

from repro.bench.workload import build_scenario
from repro.errors import UnknownObjectError
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_512
from repro.pdm import queries
from repro.pdm.operations import ExpandStrategy, _child_pairs
from repro.pdm.structure import trees_equal
from repro.rules.conditions import Attribute, Comparison, Const
from repro.rules.model import Actions, Rule
from repro.sqldb.render import render_select
from repro.sqldb.result import ResultSet


class TestQueryAction:
    def test_late_and_early_agree_on_visible_set(self, small_scenario):
        scenario = small_scenario
        late = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_LATE
        )
        early = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        late_ids = {attrs["obid"] for attrs in late.objects}
        early_ids = {attrs["obid"] for attrs in early.objects}
        assert late_ids == early_ids == scenario.product.visible_obids

    def test_single_round_trip_each(self, small_scenario):
        scenario = small_scenario
        for strategy in (
            ExpandStrategy.NAVIGATIONAL_LATE,
            ExpandStrategy.NAVIGATIONAL_EARLY,
        ):
            result = scenario.client.query(scenario.product.root_obid, strategy)
            assert result.round_trips == 1

    def test_early_transfers_fewer_bytes(self, small_scenario):
        scenario = small_scenario
        late = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_LATE
        )
        early = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        assert early.traffic.payload_bytes < late.traffic.payload_bytes
        assert early.seconds < late.seconds


class TestSingleLevelExpand:
    def test_returns_visible_children(self, small_scenario):
        scenario = small_scenario
        result = scenario.client.single_level_expand(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        expected = {
            child
            for __, child in scenario.product.children[scenario.product.root_obid]
            if child in scenario.product.visible_obids
        }
        assert {attrs["obid"] for attrs in result.objects} == expected

    def test_late_equals_early(self, small_scenario):
        scenario = small_scenario
        late = scenario.client.single_level_expand(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_LATE
        )
        early = scenario.client.single_level_expand(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        assert {a["obid"] for a in late.objects} == {
            a["obid"] for a in early.objects
        }

    def test_expand_of_leaf_returns_nothing(self, small_scenario):
        scenario = small_scenario
        leaf = scenario.product.components[0].obid
        result = scenario.client.single_level_expand(
            leaf, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        assert result.objects == []
        assert result.round_trips == 1


def split_through_dicts(result):
    """The split as it was made before ``_child_pairs``: every row through
    ``as_dicts()``, then taken apart by key."""
    link_keys = ("link_obid", "left", "right", "eff_from", "eff_to", "link_opt")
    pairs = []
    for row in result.as_dicts():
        link = {
            "type": "link",
            "obid": row["link_obid"],
            "left": row["left"],
            "right": row["right"],
            "eff_from": row["eff_from"],
            "eff_to": row["eff_to"],
            "strc_opt": row["link_opt"],
        }
        node = {key: value for key, value in row.items() if key not in link_keys}
        pairs.append((link, node))
    return pairs


def same_pairs_in_the_same_key_order(left, right):
    assert left == right
    for (left_link, left_node), (right_link, right_node) in zip(left, right):
        assert list(left_link) == list(right_link)
        assert list(left_node) == list(right_node)


class TestChildRowSplit:
    """One helper owns how a homogenised child row splits into link and
    node attributes; it builds both dicts straight from the row tuple."""

    @pytest.mark.parametrize(
        "sql",
        [
            render_select(queries.child_fetch_spec().to_statement()),
            render_select(queries.batched_children_spec("assy", 4).to_statement()),
            render_select(queries.batched_children_spec("comp", 4).to_statement()),
        ],
        ids=["child-fetch", "batched-assy", "batched-comp"],
    )
    def test_equals_the_split_through_dicts_on_real_results(
        self, small_scenario, sql
    ):
        count = sql.count("?")
        for assembly in small_scenario.product.assemblies:
            result = small_scenario.connection.execute(sql, [assembly.obid] * count)
            if result.rows:
                break
        assert result.rows
        same_pairs_in_the_same_key_order(
            _child_pairs(result), split_through_dicts(result)
        )

    def test_column_order_case_and_repeats_are_handled_like_as_dicts(self):
        result = ResultSet(
            ["Name", "LEFT", "link_opt", "obid", "eff_to", "right", "name",
             "eff_from", "Link_Obid", "type"],
            [("a", 1, "o", 2, None, 3, "b", None, 9, "assy"),
             ("c", 4, "", 5, 7.5, 6, "d", 0.5, 8, "comp")],
        )
        pairs = _child_pairs(result)
        same_pairs_in_the_same_key_order(pairs, split_through_dicts(result))
        assert pairs[0][1] == {"name": "b", "obid": 2, "type": "assy"}

    def test_no_rows_no_pairs_whatever_the_columns(self):
        assert _child_pairs(ResultSet(["unrelated"], [])) == []

    def test_a_result_without_the_link_columns_is_refused(self):
        with pytest.raises(KeyError):
            _child_pairs(ResultSet(["obid", "type"], [(1, "assy")]))

    def test_pairs_are_fresh_dicts(self):
        result = ResultSet(
            ["link_obid", "left", "right", "eff_from", "eff_to", "link_opt", "obid"],
            [(1, 2, 3, None, None, "", 3)],
        )
        first, second = _child_pairs(result), _child_pairs(result)
        first[0][0]["left"] = "changed"
        first[0][1]["obid"] = "changed"
        assert second == _child_pairs(result)


class TestMultiLevelExpand:
    def test_all_three_strategies_agree(self, small_scenario):
        scenario = small_scenario
        root = scenario.product.root_obid
        root_attrs = scenario.product.root_attributes()
        trees = {
            strategy: scenario.client.multi_level_expand(
                root, strategy, root_attrs=root_attrs
            ).tree
            for strategy in ExpandStrategy
        }
        late = trees[ExpandStrategy.NAVIGATIONAL_LATE]
        assert trees_equal(late, trees[ExpandStrategy.NAVIGATIONAL_EARLY])
        assert trees_equal(late, trees[ExpandStrategy.RECURSIVE_EARLY])

    def test_tree_matches_generator_ground_truth(self, small_scenario):
        scenario = small_scenario
        result = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            ExpandStrategy.RECURSIVE_EARLY,
            root_attrs=scenario.product.root_attributes(),
        )
        assert result.tree.obids() == scenario.product.visible_obids

    def test_navigational_round_trips_match_model(self, small_scenario):
        """1 (root) + one per visible node, leaves probed too."""
        scenario = small_scenario
        result = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            ExpandStrategy.NAVIGATIONAL_EARLY,
            root_attrs=scenario.product.root_attributes(),
        )
        assert result.round_trips == 1 + scenario.product.visible_node_count

    def test_recursive_is_exactly_one_round_trip(self, small_scenario):
        scenario = small_scenario
        result = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            ExpandStrategy.RECURSIVE_EARLY,
            root_attrs=scenario.product.root_attributes(),
        )
        assert result.round_trips == 1

    def test_recursive_much_faster_on_wan(self, small_scenario):
        scenario = small_scenario
        root_attrs = scenario.product.root_attributes()
        navigational = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            ExpandStrategy.NAVIGATIONAL_LATE,
            root_attrs=root_attrs,
        )
        recursive = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            ExpandStrategy.RECURSIVE_EARLY,
            root_attrs=root_attrs,
        )
        assert recursive.seconds < navigational.seconds / 5

    def test_fully_visible_tree_complete(self, tiny_scenario):
        scenario = tiny_scenario
        result = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            ExpandStrategy.RECURSIVE_EARLY,
            root_attrs=scenario.product.root_attributes(),
        )
        assert result.tree.node_count() == scenario.product.node_count
        assert result.tree.depth() == scenario.tree.depth


class TestRecursiveExpandCost:
    """One recursive expand costs what its answer costs: engine work is a
    function of the visible subtree, not of the product around it (exact
    counters, no clock)."""

    @staticmethod
    def scenario(depth):
        return build_scenario(
            TreeParameters(depth=depth, branching=3, visibility=0.6),
            WAN_512,
            seed=4,
        )

    def leaf_assembly_expands(self, depth):
        """``{k: counters}`` over one lowest-level assembly per visible
        subtree size k (same κ ⇒ same shape ⇒ comparable work)."""
        scenario = self.scenario(depth)
        product = scenario.product
        assemblies = {assembly.obid for assembly in product.assemblies}
        database = scenario.database
        measured = {}
        for obid in sorted(assemblies & product.visible_obids):
            children = [child for __, child in product.children.get(obid, ())]
            if any(child in assemblies for child in children):
                continue
            k = 1 + sum(child in product.visible_obids for child in children)
            if k in measured:
                continue
            before = database.statistics["rows_returned"]
            result = scenario.client.multi_level_expand(
                obid,
                ExpandStrategy.RECURSIVE_EARLY,
                root_attrs=scenario.client.fetch_object(obid),
            )
            assert len(result.tree.obids()) == k
            measured[k] = dict(
                database.last_counters,
                rows_returned=database.statistics["rows_returned"] - before,
            )
        return measured

    def test_same_subtree_costs_the_same_in_a_larger_product(self):
        small = self.leaf_assembly_expands(depth=4)
        large = self.leaf_assembly_expands(depth=6)  # 9x the links
        shared = [k for k in sorted(small) if k in large and k >= 3]
        assert shared, "no common subtree size to compare"
        for k in shared:
            assert small[k] == large[k]
            assert small[k]["subquery_executions"] == 1
            assert small[k]["rows_scanned"] <= 6 * small[k]["rows_returned"]

    def test_invisible_root_scans_one_row(self):
        scenario = self.scenario(depth=4)
        product = scenario.product
        hidden = min(
            assembly.obid
            for assembly in product.assemblies
            if assembly.obid not in product.visible_obids
        )
        result = scenario.client.multi_level_expand(
            hidden,
            ExpandStrategy.RECURSIVE_EARLY,
            root_attrs=scenario.client.fetch_object(hidden),
        )
        assert result.tree is None
        assert scenario.database.last_counters["rows_scanned"] == 1


class TestFetchObject:
    def test_fetch_assembly(self, small_scenario):
        scenario = small_scenario
        attrs = scenario.client.fetch_object(scenario.product.root_obid)
        assert attrs["type"] == "assy"

    def test_fetch_component_gets_empty_dec(self, small_scenario):
        scenario = small_scenario
        leaf = scenario.product.components[0].obid
        attrs = scenario.client.fetch_object(leaf)
        assert attrs["type"] == "comp"
        assert attrs["dec"] == ""

    def test_fetch_missing_raises(self, small_scenario):
        with pytest.raises(UnknownObjectError):
            small_scenario.client.fetch_object(99_999_999)


class TestActionResult:
    def test_measurement_fields(self, small_scenario):
        scenario = small_scenario
        result = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        assert result.seconds > 0
        assert result.traffic.messages == 2
        assert result.node_count == len(result.objects)

    def test_measurements_are_deltas(self, small_scenario):
        scenario = small_scenario
        first = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        second = scenario.client.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        assert second.seconds == pytest.approx(first.seconds)
        assert second.traffic.messages == first.traffic.messages


class TestActionSpecificRules:
    def test_mle_rule_does_not_affect_query_action(self, small_scenario):
        scenario = small_scenario
        scenario.rule_table.add(
            Rule(
                user="scott",
                action=Actions.MULTI_LEVEL_EXPAND,
                object_type="assy",
                condition=Comparison("=", Attribute("obid"), Const(-1)),
            )
        )
        fresh = scenario.fresh_client()
        result = fresh.query(
            scenario.product.root_obid, ExpandStrategy.NAVIGATIONAL_EARLY
        )
        # Unaffected: the rule is bound to the MLE action.
        assert len(result.objects) == len(scenario.product.visible_obids)
