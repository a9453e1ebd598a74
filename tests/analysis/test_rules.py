"""Per-rule coverage: one triggering and one deliberately-similar
non-triggering case for every rule_id in the catalog."""

import pytest

from repro.analysis import RULE_CATALOG, Severity, analyze_sql
from repro.sqldb import Database


@pytest.fixture(scope="module")
def pdm_db():
    from repro.pdm.schema import new_pdm_database

    return new_pdm_database()


def rule_ids(findings):
    return {finding.rule_id for finding in findings}


def find(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestRecursionRules:
    def test_r001_nonlinear_triggers(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            "  JOIN r r2 ON r2.obid = l.right"
            ") SELECT obid FROM r"
        )
        (finding,) = find(findings, "R001")
        assert finding.severity is Severity.ERROR
        assert "cte[r].branch[1]" in finding.node_path

    def test_r001_linear_is_clean(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r"
        )
        assert "R001" not in rule_ids(findings)

    def test_r002_set_operator_triggers(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  EXCEPT SELECT obid FROM r"
            ") SELECT obid FROM r"
        )
        (finding,) = find(findings, "R002")
        assert finding.severity is Severity.ERROR
        assert "EXCEPT" in finding.message

    def test_r002_aggregate_in_recursive_branch_triggers(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT MAX(l.right) FROM r JOIN link l ON l.left = r.obid"
            ") SELECT obid FROM r"
        )
        assert "R002" in rule_ids(findings)

    def test_r002_negated_membership_triggers(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM link l WHERE NOT EXISTS ("
            "    SELECT 1 FROM r WHERE r.obid = l.right)"
            ") SELECT obid FROM r"
        )
        assert find(findings, "R002")

    def test_r002_aggregate_in_outer_select_is_clean(self):
        # Aggregating over the *finished* recursion result is exactly
        # where the paper puts tree aggregates (Section 5.5 step B).
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            ") SELECT COUNT(*) FROM r"
        )
        assert "R002" not in rule_ids(findings)

    def test_r002_negation_over_other_table_is_clean(self):
        findings = analyze_sql(
            "WITH RECURSIVE r(obid) AS ("
            "  SELECT obid FROM part WHERE obid = ?"
            "  UNION SELECT l.right FROM r JOIN link l ON l.left = r.obid"
            "  WHERE NOT EXISTS (SELECT 1 FROM banned b WHERE b.obid = l.right)"
            ") SELECT obid FROM r"
        )
        assert "R002" not in rule_ids(findings)

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

    def test_p002_wrapped_column_triggers_info_without_catalog(self):
        findings = analyze_sql("SELECT name FROM part WHERE UPPER(name) = ?")
        (finding,) = find(findings, "P002")
        assert finding.severity is Severity.INFO

    def test_p002_indexed_column_escalates_to_warning(self, pdm_db):
        findings = analyze_sql(
            "SELECT name FROM assy WHERE obid + 0 = ?", database=pdm_db
        )
        assert any(
            f.rule_id == "P002" and f.severity is Severity.WARNING
            for f in findings
        )

    def test_p002_bare_column_is_clean(self):
        findings = analyze_sql("SELECT name FROM part WHERE name = ?")
        assert "P002" not in rule_ids(findings)

    def test_p002_leading_wildcard_like_triggers(self):
        findings = analyze_sql("SELECT name FROM part WHERE name LIKE '%x'")
        assert find(findings, "P002")

    def test_p002_prefix_like_is_clean(self):
        findings = analyze_sql("SELECT name FROM part WHERE name LIKE 'x%'")
        assert "P002" not in rule_ids(findings)

    def test_p003_unpadded_parameter_in_list_triggers(self):
        findings = analyze_sql(
            "SELECT name FROM part WHERE obid IN (?, ?, ?)"
        )
        (finding,) = find(findings, "P003")
        assert finding.severity is Severity.WARNING

    def test_p003_bucket_sized_in_list_is_clean(self):
        findings = analyze_sql(
            "SELECT name FROM part WHERE obid IN (?, ?, ?, ?)"
        )
        assert "P003" not in rule_ids(findings)

    def test_p003_literal_in_list_is_clean(self):
        # Literal IN-lists are one SQL text per query anyway; padding
        # would not change the number of cached plans.
        findings = analyze_sql(
            "SELECT name FROM part WHERE obid IN (1, 2, 3)"
        )
        assert "P003" not in rule_ids(findings)


class TestWanRules:
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
        findings = analyze_sql(
            "SELECT name FROM assy WHERE obid = ? OR obid = ?", database=pdm_db
        )
        (finding,) = find(findings, "W002")
        assert finding.severity is Severity.WARNING
        assert "assy" in finding.message

    def test_w002_index_probe_is_clean(self, pdm_db):
        findings = analyze_sql("SELECT name FROM assy WHERE obid = ?", database=pdm_db)
        assert "W002" not in rule_ids(findings)

    def test_w002_unconstrained_scan_is_clean(self, pdm_db):
        # A full scan with no equality candidates is a table scan by
        # intent, not a missed index.
        findings = analyze_sql("SELECT name FROM assy", database=pdm_db)
        assert "W002" not in rule_ids(findings)

    def test_w002_in_subquery_the_planner_cannot_reach_triggers(self, pdm_db):
        # Under an OR the membership test is no access path, yet an index
        # on obid could serve it: exactly where planners give up.
        findings = analyze_sql(
            "SELECT name FROM assy WHERE obid IN (SELECT right FROM link) "
            "OR name = 'x'",
            database=pdm_db,
        )
        (finding,) = find(findings, "W002")
        assert finding.severity is Severity.WARNING
        assert "'obid'" in finding.message

    def test_w002_in_subquery_probe_is_clean(self, pdm_db):
        findings = analyze_sql(
            "SELECT name FROM assy WHERE obid IN (SELECT right FROM link)",
            database=pdm_db,
        )
        assert "W002" not in rule_ids(findings)

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
        findings = analyze_sql(f"SELECT name FROM assy WHERE {where}", database=pdm_db)
        assert "W002" not in rule_ids(findings)

    def test_w002_dml_indexed_equality_that_scans_triggers(self, pdm_db):
        # The rule judges the plan the UPDATE/DELETE will locate its rows
        # with: under an OR no access path applies and every assy row is
        # read (and row-locked on a match).
        for sql in (
            "UPDATE assy SET state = 'x' WHERE obid = ? OR obid = ?",
            "DELETE FROM assy WHERE obid = ? OR name = 'x'",
        ):
            (finding,) = find(analyze_sql(sql, database=pdm_db), "W002")
            assert finding.severity is Severity.WARNING
            assert "'assy'" in finding.message and "'obid'" in finding.message

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE assy SET state = 'x' WHERE obid = ?",  # probes assy_pk
            "DELETE FROM assy WHERE obid IN (?, ?, ?, ?)",
            "DELETE FROM link WHERE left IN (SELECT obid FROM assy)",
            "UPDATE assy SET state = 'x' WHERE name = ?",  # nothing indexed
            "UPDATE assy SET state = 'x'",  # a scan by intent
            "DELETE FROM assy",
        ],
    )
    def test_w002_dml_that_probes_or_has_no_candidate_is_clean(self, pdm_db, sql):
        assert "W002" not in rule_ids(analyze_sql(sql, database=pdm_db))

    def test_w002_dml_is_plan_level_only(self):
        # Without a database there is no plan to judge.
        findings = analyze_sql("UPDATE assy SET state = 'x' WHERE obid = 1 OR obid = 2")
        assert "W002" not in rule_ids(findings)

    def test_explain_of_dml_is_analyzed_like_the_dml(self, pdm_db):
        sql = "UPDATE assy SET state = 'x' WHERE obid = ? OR obid = ?"
        assert analyze_sql(f"EXPLAIN {sql}", database=pdm_db) == analyze_sql(
            sql, database=pdm_db
        )

    def test_w003_cartesian_product_triggers(self):
        findings = analyze_sql("SELECT p.name, l.qty FROM part p, link l")
        (finding,) = find(findings, "W003")
        assert finding.severity is Severity.WARNING

    def test_w003_join_predicate_is_clean(self):
        findings = analyze_sql(
            "SELECT p.name, l.qty FROM part p, link l WHERE p.obid = l.left"
        )
        assert "W003" not in rule_ids(findings)

    def test_w003_explicit_cross_join_is_clean(self):
        findings = analyze_sql("SELECT p.name FROM part p CROSS JOIN opt o")
        assert "W003" not in rule_ids(findings)


class TestConstantish:
    """The rule modules used to carry three identical private copies of
    the constant-expression test; they must all share the one in
    ast_walk now."""

    def test_rule_modules_share_one_helper(self):
        from repro.analysis import rules_pushdown, rules_recursion, rules_wan
        from repro.sqldb import ast_walk

        assert rules_wan._constantish is ast_walk.constantish
        assert rules_pushdown._constantish is ast_walk.constantish
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


class TestCatalogOfRules:
    def test_every_rule_has_catalog_entry(self):
        assert set(RULE_CATALOG) == {
            "R001",
            "R002",
            "R003",
            "P001",
            "P002",
            "P003",
            "W001",
            "W002",
            "W003",
            "C001",
            "C002",
            "C003",
            "C004",
            "C005",
        }
        for rule_id, info in RULE_CATALOG.items():
            assert info.rule_id == rule_id
            assert info.paper_section

    def test_analyzer_is_static_even_with_database(self):
        # Linting a statement must not execute it: the table stays empty
        # and the statement counter untouched.
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        statements_before = db.statistics["statements"]
        analyze_sql("SELECT id FROM t WHERE id = ?", database=db)
        assert db.statistics["statements"] == statements_before
        assert db.execute("SELECT COUNT(*) FROM t").rows[0][0] == 0


class TestStatsKeyedSeverity:
    """W002/P002 severity keyed off ANALYZE statistics: a finding about
    an index the cost model would not use anyway drops to INFO."""

    @pytest.fixture
    def skewed_db(self):
        db = Database()
        db.execute(
            "CREATE TABLE ev (id INTEGER PRIMARY KEY, flag INTEGER, "
            "code INTEGER)"
        )
        db.execute("CREATE INDEX ev_flag ON ev (flag)")
        db.execute("CREATE INDEX ev_code ON ev (code)")
        # flag has 2 values over 100 rows (selectivity 0.5);
        # code is unique-ish (selectivity 0.01).
        db.executemany(
            "INSERT INTO ev VALUES (?, ?, ?)",
            [(i, i % 2, i) for i in range(100)],
        )
        return db

    SCAN_SQL = "SELECT id FROM ev WHERE flag = ? OR flag = ?"
    WRAPPED_SQL = "SELECT id FROM ev WHERE flag + 0 = ?"

    def test_w002_warning_without_stats(self, skewed_db):
        (finding,) = find(analyze_sql(self.SCAN_SQL, database=skewed_db), "W002")
        assert finding.severity is Severity.WARNING

    def test_w002_downgraded_for_nonselective_column(self, skewed_db):
        skewed_db.execute("ANALYZE ev")
        (finding,) = find(analyze_sql(self.SCAN_SQL, database=skewed_db), "W002")
        assert finding.severity is Severity.INFO
        assert "cost-justified" in finding.message

    def test_w002_stays_warning_for_selective_column(self, skewed_db):
        skewed_db.execute("ANALYZE ev")
        findings = analyze_sql(
            "SELECT id FROM ev WHERE code = ? OR code = ?", database=skewed_db
        )
        (finding,) = find(findings, "W002")
        assert finding.severity is Severity.WARNING

    def test_w002_in_subquery_scan_chosen_by_cost_is_info(self, skewed_db):
        skewed_db.execute("ANALYZE ev")
        # code is selective, but 100 keys cost more than one scan; flag is
        # not, so even two keys walk the whole table.
        for sql in (
            "SELECT id FROM ev WHERE code IN (SELECT id FROM ev)",
            "SELECT id FROM ev WHERE flag IN (SELECT id FROM ev WHERE id < 2)",
        ):
            (finding,) = find(analyze_sql(sql, database=skewed_db), "W002")
            assert finding.severity is Severity.INFO
            assert "cost-justified" in finding.message

    def test_w002_dml_scan_chosen_by_cost_is_info(self, skewed_db):
        sql = "UPDATE ev SET code = 0 WHERE flag = ? OR flag = ?"
        (finding,) = find(analyze_sql(sql, database=skewed_db), "W002")
        assert finding.severity is Severity.WARNING
        skewed_db.execute("ANALYZE ev")
        # Half the table per key: no index would have beaten the scan.
        (finding,) = find(analyze_sql(sql, database=skewed_db), "W002")
        assert finding.severity is Severity.INFO
        assert "cost-justified" in finding.message
        (finding,) = find(
            analyze_sql(
                "DELETE FROM ev WHERE code = ? OR code = ?", database=skewed_db
            ),
            "W002",
        )
        assert finding.severity is Severity.WARNING

    def test_p002_warning_without_stats(self, skewed_db):
        (finding,) = find(analyze_sql(self.WRAPPED_SQL, database=skewed_db), "P002")
        assert finding.severity is Severity.WARNING

    def test_p002_downgraded_for_nonselective_column(self, skewed_db):
        skewed_db.execute("ANALYZE ev")
        (finding,) = find(analyze_sql(self.WRAPPED_SQL, database=skewed_db), "P002")
        assert finding.severity is Severity.INFO

    def test_p002_stays_warning_for_selective_column(self, skewed_db):
        skewed_db.execute("ANALYZE ev")
        findings = analyze_sql(
            "SELECT id FROM ev WHERE code + 0 = ?", database=skewed_db
        )
        (finding,) = find(findings, "P002")
        assert finding.severity is Severity.WARNING
