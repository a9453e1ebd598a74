"""EXPLAIN: plan rendering and access-path verification."""

import pytest

from repro.pdm.queries import recursive_mle_spec
from repro.rules.modificator import QueryModificator
from repro.rules.ruletable import RuleTable
from repro.sqldb import Database
from repro.sqldb.render import render_select


@pytest.fixture
def db():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE a (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER);
        CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER);
        CREATE INDEX b_a ON b (a_id)
        """
    )
    return db


def plan_text(db, sql):
    return "\n".join(line for (line,) in db.execute(f"EXPLAIN {sql}").rows)


class TestExplainOutput:
    def test_point_query_uses_pk_index(self, db):
        text = plan_text(db, "SELECT * FROM a WHERE id = 1")
        assert "IndexLookup(a via a_pk)" in text

    def test_full_scan_without_predicate(self, db):
        assert "SeqScan(a)" in plan_text(db, "SELECT * FROM a")

    def test_indexed_join_uses_index_nested_loop(self, db):
        text = plan_text(db, "SELECT * FROM a JOIN b ON b.a_id = a.id")
        assert "IndexNestedLoopJoin" in text
        assert "via b_pk" in text or "via b_a" in text or "via a_pk" in text

    def test_non_indexed_equi_join_uses_hash_join(self, db):
        db.execute("CREATE TABLE c (x INTEGER)")
        text = plan_text(db, "SELECT * FROM c AS l JOIN c AS r ON l.x = r.x")
        assert "HashJoin" in text

    def test_aggregate_and_sort_visible(self, db):
        text = plan_text(
            db, "SELECT grp, COUNT(*) FROM a GROUP BY grp ORDER BY grp"
        )
        assert "Aggregate(1 group key(s), 1 aggregate(s))" in text
        assert "Sort(1 key(s))" in text

    def test_recursive_cte_sections(self, db):
        text = plan_text(
            db,
            "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r "
            "WHERE n < 5) SELECT * FROM r",
        )
        assert "materialize recursive cte r (UNION)" in text
        assert "seed branch:" in text
        assert "recursive branch (joins the delta):" in text

    def test_in_subquery_on_indexed_column_is_labelled(self, db):
        text = plan_text(
            db, "SELECT * FROM b WHERE a_id IN (SELECT id FROM a WHERE v > 1)"
        )
        assert "MultiKeyIndexLookup(b via b_a, keys from subquery)" in text

    def test_explain_method_facade(self, db):
        result = db.explain("SELECT * FROM a")
        assert result.columns == ["plan"]
        assert result.rows

    def test_view_appears_as_subplan(self, db):
        db.execute("CREATE VIEW va AS SELECT id FROM a WHERE v > 1")
        text = plan_text(db, "SELECT * FROM va")
        assert "Subplan" in text


class TestPDMPlanShape:
    """The access-path decisions that make the paper-scale simulation
    feasible must be visible in the recursive MLE plan."""

    def test_recursive_mle_probes_link_by_index(self, figure2_db):
        sql = render_select(
            QueryModificator(RuleTable(), "scott", {})
            .modify_recursive(recursive_mle_spec(), "multi_level_expand")
            .to_statement()
        )
        text = "\n".join(
            line for (line,) in figure2_db.execute(f"EXPLAIN {sql}").rows
        )
        assert "materialize recursive cte rtbl" in text
        # The recursion joins delta -> link via the link.left hash index,
        # then link -> assy/comp via their primary keys.
        assert "IndexNestedLoopJoin(INNER probe link via link_left_idx)" in text
        assert "probe assy via assy_pk" in text
        assert "probe comp via comp_pk" in text

    def test_navigational_child_fetch_uses_link_index(self, figure2_db):
        text = "\n".join(
            line
            for (line,) in figure2_db.execute(
                "EXPLAIN SELECT * FROM link JOIN assy ON link.right = assy.obid "
                "WHERE link.left = ?"
            ).rows
        )
        assert "IndexLookup(link via link_left_idx)" in text

    def test_recursive_mle_drives_the_link_block_from_rtbl(self, figure2_db):
        sql = render_select(recursive_mle_spec().to_statement())
        text = "\n".join(
            line for (line,) in figure2_db.execute(f"EXPLAIN {sql}").rows
        )
        assert (
            "MultiKeyIndexLookup(link via link_left_idx, keys from subquery)"
            in text
        )

    def test_no_template_select_scans_link(self, figure2_db):
        from repro.analysis.templates import template_queries

        scanning = [
            name
            for name, sql in template_queries()
            if sql.lstrip().upper().startswith(("SELECT", "WITH"))
            and any(
                "SeqScan(link)" in line
                for (line,) in figure2_db.execute(f"EXPLAIN {sql}").rows
            )
        ]
        assert scanning == []
