"""Per-rule coverage: one triggering and one deliberately-similar
non-triggering case for every rule_id in the catalog.

R001/R002, W002 and W003 are no longer rules: the engine decides those
shapes.  Their cases stay here and check the engine fact instead — the
planner's refusal, or the access path ``EXPLAIN`` prints."""

import ast as pyast
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis import RULE_CATALOG, Severity, analyze_sql
from repro.errors import ParseError
from repro.sqldb import Database


@pytest.fixture(scope="module")
def pdm_db():
    from repro.pdm.schema import new_pdm_database

    return new_pdm_database()


@pytest.fixture(scope="module")
def recursion_db():
    db = Database()
    db.execute("CREATE TABLE part (obid INTEGER PRIMARY KEY)")
    db.execute("CREATE TABLE link (left INTEGER, right INTEGER)")
    db.execute("CREATE TABLE banned (obid INTEGER PRIMARY KEY)")
    return db


def rule_ids(findings):
    return {finding.rule_id for finding in findings}


def find(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


def plan_lines(db, sql):
    return [row[0].strip() for row in db.execute(f"EXPLAIN {sql}").rows]


def access_path(db, sql):
    """The plan's leaf: how the statement reads its (only) table."""
    return plan_lines(db, sql)[-1]


class TestRecursionRules:
    """R003 is the one recursion lint.  The R001/R002 shapes — recursion
    without a fixpoint — are planner refusals that name the CTE."""

    def assert_refused(self, db, sql):
        with pytest.raises(ParseError, match="'r'"):
            db.execute(f"EXPLAIN {sql}")

    def test_r001_nonlinear_triggers(self, recursion_db):
        self.assert_refused(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            "  JOIN r r2 ON r2.obid = l.right"
            ") SELECT obid FROM r",
        )

    def test_r001_linear_is_clean(self, recursion_db):
        plan_lines(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r",
        )

    def test_r002_set_operator_triggers(self, recursion_db):
        self.assert_refused(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  EXCEPT SELECT obid FROM r"
            ") SELECT obid FROM r",
        )

    def test_r002_aggregate_in_recursive_branch_triggers(self, recursion_db):
        self.assert_refused(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT MAX(l.right) FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r",
        )

    def test_r002_negated_membership_triggers(self, recursion_db):
        self.assert_refused(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM link l WHERE NOT EXISTS ("
            "    SELECT 1 FROM r WHERE r.obid = l.right)"
            ") SELECT obid FROM r",
        )

    def test_r002_aggregate_in_outer_select_is_clean(self, recursion_db):
        # Aggregating over the *finished* recursion result is exactly
        # where the paper puts tree aggregates (Section 5.5 step B).
        plan_lines(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            ") SELECT COUNT(*) FROM r",
        )

    def test_r002_negation_over_other_table_is_clean(self, recursion_db):
        plan_lines(
            recursion_db,
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            "  WHERE NOT EXISTS (SELECT 1 FROM banned b WHERE b.obid = l.right)"
            ") SELECT obid FROM r",
        )

    def test_r003_unguarded_union_all_triggers(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid, depth) AS ("
            "  SELECT obid, 0 FROM part WHERE obid = ?"
            "  UNION ALL SELECT l.right, r.depth + 1"
            "  FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r"
        )
        (finding,) = find(findings, "R003")
        assert finding.severity is Severity.WARNING

    def test_r003_depth_guard_is_clean(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid, depth) AS ("
            "  SELECT obid, 0 FROM part WHERE obid = ?"
            "  UNION ALL SELECT l.right, r.depth + 1"
            "  FROM r JOIN link l ON l.left = r.obid WHERE r.depth < ?"
            ") SELECT obid FROM r"
        )
        assert "R003" not in rule_ids(findings)

    def test_r003_union_distinct_is_clean(self):
        # UNION's duplicate elimination is the cycle protection.
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r"
        )
        assert "R003" not in rule_ids(findings)


class TestPushdownRules:
    def test_p001_tree_condition_inside_recursion_triggers(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            "  WHERE (SELECT COUNT(*) FROM r) < ?"
            ") SELECT obid FROM r"
        )
        (finding,) = find(findings, "P001")
        assert finding.severity is Severity.ERROR

    def test_p001_exists_probe_over_base_table_is_clean(self):
        # The ∃structure probe of Section 5.5 step C: references base
        # tables only, legal INSIDE the recursive block.
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            "  WHERE EXISTS (SELECT 1 FROM link lp WHERE lp.left = l.right)"
            ") SELECT obid FROM r"
        )
        assert "P001" not in rule_ids(findings)


class TestWanRules:
    """W001 is the one WAN lint.  Where the plan reads a table (W002) and
    whether a join has a key (W003) are shown by ``EXPLAIN``; run-time
    probe pricing (``keys=N probed|scanned``) is covered by
    ``tests/sqldb/test_probe_pricing.py``."""

    def test_w001_point_select_is_info(self):
        findings = analyze_sql("SELECT name FROM part WHERE obid = ?")
        (finding,) = find(findings, "W001")
        assert finding.severity is Severity.INFO

    def test_w001_batched_in_list_is_clean(self):
        findings = analyze_sql(
            "SELECT name FROM part WHERE obid IN (?, ?, ?, ?)"
        )
        assert "W001" not in rule_ids(findings)

    def test_w001_recursive_query_is_clean(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r"
        )
        assert "W001" not in rule_ids(findings)

    def test_w002_or_disjunction_forces_seq_scan(self, pdm_db):
        sql = "SELECT name FROM assy WHERE obid = ? OR obid = ?"
        assert access_path(pdm_db, sql) == "-> SeqScan(assy)"

    def test_w002_index_probe_is_clean(self, pdm_db):
        sql = "SELECT name FROM assy WHERE obid = ?"
        assert access_path(pdm_db, sql) == "-> IndexLookup(assy via assy_pk)"

    def test_w002_unconstrained_scan_is_clean(self, pdm_db):
        # A full scan with no predicate is a table scan by intent.
        assert plan_lines(pdm_db, "SELECT name FROM assy") == [
            "-> Project(name)",
            "-> SeqScan(assy)",
        ]

    def test_w002_in_subquery_the_planner_cannot_reach_triggers(self, pdm_db):
        # Under an OR the membership test is no access path.
        sql = (
            "SELECT name FROM assy WHERE obid IN (SELECT right FROM link) "
            "OR name = 'x'"
        )
        assert access_path(pdm_db, sql) == "-> SeqScan(assy)"

    def test_w002_in_subquery_probe_is_clean(self, pdm_db):
        sql = "SELECT name FROM assy WHERE obid IN (SELECT right FROM link)"
        assert access_path(pdm_db, sql) == (
            "-> MultiKeyIndexLookup(assy via assy_pk, keys from subquery)"
        )

    @pytest.mark.parametrize(
        "where",
        [
            "obid NOT IN (SELECT right FROM link)",
            "name IN (SELECT name FROM comp)",  # unindexed column
            # correlated: no key set exists before the scan
            "obid IN (SELECT l.right FROM link l WHERE l.left = assy.product)",
        ],
    )
    def test_w002_in_subquery_without_an_access_path_is_clean(
        self, pdm_db, where
    ):
        sql = f"SELECT name FROM assy WHERE {where}"
        assert access_path(pdm_db, sql) == "-> SeqScan(assy)"

    def test_w002_dml_indexed_equality_that_scans_triggers(self, pdm_db):
        # Under an OR no access path applies: every assy row is read (and
        # row-locked on a match).
        for sql in (
            "UPDATE assy SET state = 'x' WHERE obid = ? OR obid = ?",
            "DELETE FROM assy WHERE obid = ? OR name = 'x'",
        ):
            assert access_path(pdm_db, sql) == "-> SeqScan(assy)"

    @pytest.mark.parametrize(
        ("sql", "path"),
        [
            pytest.param(sql, path, id=sql)
            for sql, path in (
                (
                    "UPDATE assy SET state = 'x' WHERE obid = ?",
                    "IndexLookup(assy via assy_pk)",
                ),
                (
                    "DELETE FROM assy WHERE obid IN (?, ?, ?, ?)",
                    "MultiKeyIndexLookup(assy via assy_pk, 4 keys)",
                ),
                (
                    "DELETE FROM link WHERE left IN (SELECT obid FROM assy)",
                    "MultiKeyIndexLookup(link via link_left_idx, "
                    "keys from subquery)",
                ),
                ("UPDATE assy SET state = 'x' WHERE name = ?", "SeqScan(assy)"),
                ("UPDATE assy SET state = 'x'", "SeqScan(assy)"),
                ("DELETE FROM assy", "SeqScan(assy)"),
            )
        ],
    )
    def test_w002_dml_that_probes_or_has_no_candidate_is_clean(
        self, pdm_db, sql, path
    ):
        assert access_path(pdm_db, sql) == f"-> {path}"

    def test_w002_dml_is_plan_level_only(self):
        # The analyzer judges no plan: a DML statement has no findings.
        assert analyze_sql("UPDATE assy SET state = 'x' WHERE obid = 1 OR obid = 2") == []

    def test_explain_of_dml_is_analyzed_like_the_dml(self):
        sql = "UPDATE assy SET state = 'x' WHERE obid = ? OR obid = ?"
        assert analyze_sql(f"EXPLAIN {sql}") == analyze_sql(sql)

    def test_w003_cartesian_product_triggers(self, pdm_db):
        sql = "SELECT a.name, l.eff_from FROM assy a, link l"
        assert "-> NestedLoopJoin(CROSS)" in plan_lines(pdm_db, sql)

    def test_w003_join_predicate_is_clean(self, pdm_db):
        # A comma list's equality is a join key, not a filter over a
        # cross product.
        lines = plan_lines(
            pdm_db, "SELECT a.name, l.eff_from FROM assy a, link l WHERE a.obid = l.left"
        )
        assert "-> NestedLoopJoin(CROSS)" not in lines
        assert "-> IndexNestedLoopJoin(INNER probe link via link_left_idx)" in lines


class TestConstantish:
    """R003's depth guard uses the one constant-expression test, in
    ast_walk, not a private copy."""

    def test_rule_modules_share_one_helper(self):
        from repro.analysis import rules_recursion
        from repro.sqldb import ast_walk

        assert rules_recursion._constantish is ast_walk.constantish

    @pytest.mark.parametrize(
        ("sql", "expected"),
        [
            ("42", True),
            ("?", True),
            ("? + 1", True),
            ("UPPER('x')", True),
            ("obid", False),
            ("obid + 1", False),
            ("(SELECT MAX(obid) FROM part)", False),
            ("EXISTS (SELECT 1 FROM part)", False),
        ],
    )
    def test_constant_expressions(self, sql, expected):
        from repro.sqldb.ast_walk import constantish
        from repro.sqldb.parser import parse_expression

        assert constantish(parse_expression(sql)) is expected


def emitted_rule_ids():
    """Every rule id passed as a string literal to ``Finding(`` anywhere
    in the analysis package."""
    ids = set()
    for path in Path(repro.analysis.__file__).parent.glob("*.py"):
        tree = pyast.parse(path.read_text(encoding="utf-8"))
        for node in pyast.walk(tree):
            if not (
                isinstance(node, pyast.Call)
                and isinstance(node.func, pyast.Name)
                and node.func.id == "Finding"
            ):
                continue
            arguments = node.args[:1] + [
                keyword.value for keyword in node.keywords
                if keyword.arg == "rule_id"
            ]
            for argument in arguments:
                if isinstance(argument, pyast.Constant) and isinstance(
                    argument.value, str
                ):
                    ids.add(argument.value)
    return ids


class TestCatalogOfRules:
    def test_every_rule_has_catalog_entry(self):
        assert set(RULE_CATALOG) == {"R003", "P001", "W001", "C001", "C002"}
        assert emitted_rule_ids() == set(RULE_CATALOG)
        for rule_id, info in RULE_CATALOG.items():
            assert info.rule_id == rule_id
            assert info.paper_section
