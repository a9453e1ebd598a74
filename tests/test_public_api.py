"""Public API surface: everything advertised must import and compose.

A downstream user should be able to drive the whole reproduction through
``import repro`` — this suite is the contract.
"""

import inspect

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_alls_resolve(self):
        import repro.model
        import repro.network
        import repro.pdm
        import repro.rules
        import repro.server
        import repro.sqldb

        for module in (
            repro.model,
            repro.network,
            repro.pdm,
            repro.rules,
            repro.server,
            repro.sqldb,
        ):
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestEngineOptions:
    """The plan picks the executor, the statistics pick the planner and
    snapshots are always on: none is an option, and this is what keeps
    one from creeping back."""

    def test_database_signature(self):
        assert tuple(inspect.signature(repro.Database).parameters) == (
            "plan_cache_size",
            "recursion_limit",
            "auto_analyze_threshold",
        )

    def test_durability_signature(self):
        from repro.recovery import Durability

        assert tuple(inspect.signature(Durability).parameters) == (
            "disk",
            "recorder",
        )

    def test_execute_signature(self):
        parameters = tuple(inspect.signature(repro.Database.execute).parameters)
        assert parameters == ("self", "sql", "params", "session")

    def test_planner_has_no_cost_switch(self):
        from repro.sqldb.planner import Planner

        assert "cost_based" not in inspect.signature(Planner).parameters

    def test_there_is_one_operator_hierarchy(self):
        """No twin module to translate a plan into, no slot on the plan to
        cache the translation in."""
        import dataclasses
        import importlib.util

        from repro.sqldb.planner import Plan

        assert importlib.util.find_spec("repro.sqldb.vec_executor") is None
        assert "vec_cache" not in {f.name for f in dataclasses.fields(Plan)}


class TestOneExpand:
    """Every strategy degrades instead of failing inside the one
    multi-level expand: no second entry point, no resume budget option
    and no checkpoint type for a caller to hand back."""

    def test_no_resilient_or_resume_entry_point(self):
        from repro.pdm.operations import PDMClient

        forks = [
            name
            for name in dir(PDMClient)
            if name.startswith(("resilient_", "resume_"))
        ]
        assert forks == []

    def test_no_public_checkpoint_type(self):
        from repro.pdm import operations

        assert not hasattr(operations, "ExpandCheckpoint")

    def test_multi_level_expand_signature(self):
        from repro.pdm.operations import PDMClient

        parameters = tuple(
            inspect.signature(PDMClient.multi_level_expand).parameters
        )
        assert parameters == (
            "self",
            "root_obid",
            "strategy",
            "root_attrs",
            "max_depth",
        )


class TestTopLevelWorkflow:
    def test_full_flow_through_top_level_names_only(self):
        scenario = repro.build_scenario(
            repro.TreeParameters(depth=2, branching=2, visibility=1.0),
            repro.WAN_512,
            seed=1,
        )
        result = scenario.client.multi_level_expand(
            scenario.product.root_obid,
            repro.ExpandStrategy.RECURSIVE_EARLY,
            root_attrs=scenario.product.root_attributes(),
        )
        assert result.tree.node_count() == scenario.product.node_count
        prediction = repro.predict(
            repro.Action.MLE,
            repro.Strategy.RECURSIVE,
            scenario.tree,
            repro.NetworkParameters(latency_s=0.15, dtr_kbit_s=512),
        )
        assert prediction.total_seconds > 0

    def test_raw_database_through_top_level(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert db.execute("SELECT SUM(v) FROM t").scalar() == 3

    def test_client_server_through_top_level(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        server = repro.DatabaseServer(db)
        connection = repro.RemoteConnection(server, repro.LAN.create_link())
        assert connection.execute("SELECT 41 + 1").scalar() == 42

    def test_rule_construction_through_rules_package(self):
        from repro.rules import (
            Actions,
            Configurator,
            OptionCatalog,
            Rule,
            RuleTable,
            make_not_buy_rule,
        )

        table = RuleTable([make_not_buy_rule()])
        assert len(table) == 1
        catalog = OptionCatalog(["a", "b"])
        assert Configurator(catalog).validate(["a"]) == 1
        assert Actions.ACCESS == "access"
        assert isinstance(table.relevant("scott", "multi_level_expand", "assy")[0], Rule)
