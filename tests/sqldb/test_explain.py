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


# ---------------------------------------------------------------------------
# One statement per concrete operator class: its EXPLAIN text, exactly, and
# the proof that the class is wired into the tree it renders.
# ---------------------------------------------------------------------------

#: operator class -> (statement, its whole EXPLAIN output)
OPERATOR_CORPUS = {
    "SeqScan": ("SELECT * FROM a", ["-> Project(id, grp, v)", "  -> SeqScan(a)"]),
    "IndexLookup": (
        "SELECT * FROM a WHERE id = 1",
        ["-> Project(id, grp, v)", "  -> Filter", "    -> IndexLookup(a via a_pk)"],
    ),
    "MultiKeyIndexLookup": (
        "SELECT * FROM a WHERE id IN (1, 2, 3)",
        [
            "-> Project(id, grp, v)",
            "  -> Filter",
            "    -> MultiKeyIndexLookup(a via a_pk, 3 keys)",
        ],
    ),
    "IndexNestedLoopJoin": (
        "SELECT * FROM c LEFT JOIN b ON b.a_id = c.x",
        [
            "-> Project(x, id, a_id)",
            "  -> IndexNestedLoopJoin(LEFT probe b via b_a)",
            "    -> SeqScan(c)",
        ],
    ),
    "CTEScan": (
        "WITH w (n) AS (SELECT id FROM a) SELECT n FROM w",
        [
            "materialize cte w (UNION)",
            "  seed branch:",
            "    -> Project(id)",
            "      -> SeqScan(a)",
            "-> Project(n)",
            "  -> CTEScan(w)",
        ],
    ),
    "RowsSource": ("SELECT 1", ["-> Project(col1)", "  -> Values"]),
    "Filter": (
        "SELECT * FROM a WHERE v > 1",
        ["-> Project(id, grp, v)", "  -> Filter", "    -> SeqScan(a)"],
    ),
    "Project": ("SELECT id, v + 1 AS w FROM a", ["-> Project(id, w)", "  -> SeqScan(a)"]),
    "NestedLoopJoin": (
        "SELECT * FROM c AS l, c AS r",
        [
            "-> Project(x, x)",
            "  -> NestedLoopJoin(CROSS)",
            "    -> SeqScan(c)",
            "    -> SeqScan(c)",
        ],
    ),
    "HashJoin": (
        "SELECT * FROM c AS l JOIN c AS r ON l.x = r.x",
        [
            "-> Project(x, x)",
            "  -> HashJoin(1 key(s))",
            "    -> SeqScan(c)",
            "    -> SeqScan(c)",
        ],
    ),
    "UnionAll": (
        "SELECT x FROM c UNION ALL SELECT x FROM c",
        [
            "-> UnionAll",
            "  -> Project(x)",
            "    -> SeqScan(c)",
            "  -> Project(x)",
            "    -> SeqScan(c)",
        ],
    ),
    "Distinct": (
        "SELECT DISTINCT x FROM c",
        ["-> Distinct", "  -> Project(x)", "    -> SeqScan(c)"],
    ),
    "SetDifference": (
        "SELECT x FROM c EXCEPT SELECT id FROM a",
        [
            "-> Except",
            "  -> Project(x)",
            "    -> SeqScan(c)",
            "  -> Project(id)",
            "    -> SeqScan(a)",
        ],
    ),
    "SetIntersection": (
        "SELECT x FROM c INTERSECT SELECT id FROM a",
        [
            "-> Intersect",
            "  -> Project(x)",
            "    -> SeqScan(c)",
            "  -> Project(id)",
            "    -> SeqScan(a)",
        ],
    ),
    "Aggregate": (
        "SELECT grp, COUNT(*), SUM(v) FROM a GROUP BY grp",
        [
            "-> Project(grp, count, sum)",
            "  -> Aggregate(1 group key(s), 2 aggregate(s))",
            "    -> SeqScan(a)",
        ],
    ),
    "Sort": (
        "SELECT x FROM c ORDER BY x DESC, 1",
        ["-> Sort(2 key(s))", "  -> Project(x)", "    -> SeqScan(c)"],
    ),
    "Offset": (
        "SELECT x FROM c OFFSET 2",
        ["-> Offset", "  -> Project(x)", "    -> SeqScan(c)"],
    ),
    "Limit": (
        "SELECT x FROM c LIMIT 3 OFFSET 2",
        ["-> Limit", "  -> Offset", "    -> Project(x)", "      -> SeqScan(c)"],
    ),
    "SubplanOperator": (
        "SELECT d.x FROM (SELECT x FROM c WHERE x > 1) AS d",
        [
            "-> Project(x)",
            "  -> Subplan",
            "    -> Project(x)",
            "      -> Filter",
            "        -> SeqScan(c)",
        ],
    ),
}


@pytest.fixture
def corpus_db(db):
    db.execute("CREATE TABLE c (x INTEGER)")
    return db


def concrete_operator_classes():
    import repro.sqldb.planner  # noqa: F401  (defines SubplanOperator)
    from repro.sqldb.executor import Operator

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    # A leading underscore marks the shared bases (_TableAccess, ...).
    return [cls for cls in walk(Operator) if not cls.__name__.startswith("_")]


class TestOperatorSet:
    @pytest.mark.parametrize("operator", sorted(OPERATOR_CORPUS))
    def test_explain_text_of_every_operator(self, corpus_db, operator):
        sql, expected = OPERATOR_CORPUS[operator]
        assert plan_text(corpus_db, sql).splitlines() == expected

    def test_the_corpus_names_every_operator_class(self):
        assert sorted(cls.__name__ for cls in concrete_operator_classes()) == sorted(
            OPERATOR_CORPUS
        )

    def test_no_operator_is_half_registered(self, corpus_db):
        """Every concrete class has its own ``rows`` and a ``label()``, and
        ``children`` is every operator an instance holds — whatever
        attribute it keeps it under — so EXPLAIN, EXPLAIN ANALYZE, the
        estimate pass and the batch-or-rows decision all see the same
        tree."""
        from repro.sqldb.executor import Operator
        from repro.sqldb.explain import plan_operators
        from repro.sqldb.parser import parse_statement

        def held(operator):
            """Operators kept under any attribute other than ``children``."""
            found = []
            for name, value in vars(operator).items():
                if name == "children":
                    continue
                if isinstance(value, Operator):
                    found.append(value)
                elif isinstance(value, (list, tuple)):
                    found.extend(v for v in value if isinstance(v, Operator))
                elif hasattr(value, "plan"):  # SubplanOperator's subquery
                    found.append(value.plan.root)
            return found

        instances = {}
        for sql, __ in OPERATOR_CORPUS.values():
            plan = corpus_db.plan_statement(parse_statement(sql))
            for operator in plan_operators(plan):
                instances.setdefault(type(operator), operator)
        for cls in concrete_operator_classes():
            assert cls.rows is not Operator.rows, cls
            instance = instances[cls]
            assert instance.label()
            children = [id(child) for child in instance.children]
            inputs = [id(child) for child in held(instance)]
            assert [child for child in children if child in inputs] == inputs, cls
            has_batches = cls.batches is not Operator.batches
            assert (instance.fallback is None) == (
                has_batches and all(c.fallback is None for c in instance.children)
            ), cls
