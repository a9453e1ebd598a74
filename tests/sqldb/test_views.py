"""Views: definition, expansion, and the Section 5.5 opacity property."""

import pytest

from repro.errors import CatalogError, ParseError
from repro.sqldb import Database


@pytest.fixture
def db():
    db = Database()
    db.execute(
        "CREATE TABLE part (id INTEGER PRIMARY KEY, kind VARCHAR(8), v INTEGER)"
    )
    db.execute(
        "INSERT INTO part VALUES (1, 'assy', 10), (2, 'assy', 20), (3, 'comp', 30)"
    )
    return db


class TestDefinition:
    def test_create_and_select(self, db):
        db.execute("CREATE VIEW assies AS SELECT id, v FROM part WHERE kind = 'assy'")
        result = db.execute("SELECT * FROM assies ORDER BY id")
        assert result.columns == ["id", "v"]
        assert result.rows == [(1, 10), (2, 20)]

    def test_explicit_column_list_renames(self, db):
        db.execute("CREATE VIEW named (obid, score) AS SELECT id, v FROM part")
        result = db.execute("SELECT obid, score FROM named WHERE obid = 3")
        assert result.rows == [(3, 30)]

    def test_column_arity_mismatch_rejected_at_create(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW bad (a, b, c) AS SELECT id FROM part")

    def test_broken_definition_rejected_at_create(self, db):
        with pytest.raises(Exception):
            db.execute("CREATE VIEW bad AS SELECT missing FROM part")

    def test_duplicate_name_rejected(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id FROM part")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW v1 AS SELECT v FROM part")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW part AS SELECT id FROM part")

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id FROM part")
        db.execute("DROP VIEW v1")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM v1")

    def test_drop_missing_view_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP VIEW ghost")

    def test_view_names_listing(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id FROM part")
        assert db.view_names() == ["v1"]


class TestExpansion:
    def test_view_reflects_base_table_changes(self, db):
        db.execute("CREATE VIEW assies AS SELECT id FROM part WHERE kind = 'assy'")
        db.execute("INSERT INTO part VALUES (4, 'assy', 40)")
        assert len(db.execute("SELECT * FROM assies")) == 3

    def test_view_in_join(self, db):
        db.execute("CREATE VIEW assies AS SELECT id FROM part WHERE kind = 'assy'")
        result = db.execute(
            "SELECT part.v FROM assies JOIN part ON assies.id = part.id "
            "ORDER BY 1"
        )
        assert result.column("v") == [10, 20]

    def test_view_on_view(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id, v FROM part WHERE v > 5")
        db.execute("CREATE VIEW v2 AS SELECT id FROM v1 WHERE v > 15")
        assert sorted(db.execute("SELECT * FROM v2").column("id")) == [2, 3]

    def test_view_with_aggregation(self, db):
        db.execute(
            "CREATE VIEW stats AS "
            "SELECT kind, COUNT(*) AS n, SUM(v) AS total FROM part GROUP BY kind"
        )
        result = db.execute("SELECT * FROM stats ORDER BY kind")
        assert result.rows == [("assy", 2, 30), ("comp", 1, 30)]

    def test_view_with_alias(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id FROM part")
        result = db.execute("SELECT a.id FROM v1 AS a WHERE a.id = 1")
        assert result.rows == [(1,)]

    def test_view_in_subquery(self, db):
        db.execute("CREATE VIEW assies AS SELECT id FROM part WHERE kind = 'assy'")
        result = db.execute(
            "SELECT COUNT(*) FROM part WHERE id IN (SELECT id FROM assies)"
        )
        assert result.scalar() == 2

    def test_a_query_cte_does_not_shadow_a_table_the_view_reads(self, db):
        """A view is planned without the query's CTE names: ``t`` in its
        definition is the base table ``t``, whatever the query calls ``t``."""
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db.execute("CREATE VIEW v AS SELECT id, k FROM t")
        result = db.execute("WITH t AS (SELECT 99 AS id, 99 AS k) SELECT * FROM v ORDER BY id")
        assert result.rows == [(1, 10), (2, 20)]

    def test_recursive_view_definition_rejected(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id FROM part")
        db.execute("DROP VIEW v1")
        # Re-create v1 referring to a view that refers back to v1 is not
        # constructible through CREATE (validation is eager), so simulate
        # a self-reference directly:
        from repro.sqldb import ast_nodes as ast
        from repro.sqldb.parser import parse_statement

        statement = parse_statement("SELECT * FROM self_view")
        db.views["self_view"] = ast.CreateView(
            name="self_view", columns=None, select=statement
        )
        with pytest.raises(ParseError):
            db.execute("SELECT * FROM self_view")

    def test_cte_shadows_view(self, db):
        db.execute("CREATE VIEW shadow AS SELECT id FROM part")
        result = db.execute(
            "WITH shadow AS (SELECT 99 AS id) SELECT id FROM shadow"
        )
        assert result.rows == [(99,)]

    def test_plan_cache_invalidated_on_view_change(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id FROM part")
        assert len(db.execute("SELECT * FROM v1")) == 3
        db.execute("DROP VIEW v1")
        db.execute("CREATE VIEW v1 AS SELECT id FROM part WHERE id = 1")
        assert len(db.execute("SELECT * FROM v1")) == 1


class TestViewOpacity:
    """The paper's Section 5.5 remark: a query (or part of it) hidden in a
    view cannot be modified by the rule machinery — the engine happily
    executes it, but the modificator must refuse."""

    def test_modificator_rejects_view_backed_query(self):
        from repro.errors import QueryModificationError
        from repro.rules.modificator import OpaqueQuery, QueryModificator
        from repro.rules.ruletable import RuleTable

        modificator = QueryModificator(RuleTable(), "scott", {})
        opaque = OpaqueQuery(
            sql="SELECT * FROM product_tree_view", description="view"
        )
        with pytest.raises(QueryModificationError):
            modificator.modify_recursive(opaque, "multi_level_expand")

    def test_view_based_expand_misses_rule_filtering(self, figure2_db):
        """Contrast: querying through a view returns unfiltered data —
        the rules would have to be part of the view definition itself."""
        figure2_db.execute(
            "CREATE VIEW root_children AS "
            "SELECT link.right AS obid FROM link WHERE link.left = 1"
        )
        result = figure2_db.execute("SELECT * FROM root_children ORDER BY 1")
        assert result.column("obid") == [2, 3]  # no rule was applied
