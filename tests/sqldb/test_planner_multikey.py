"""Multi-key index probes for ``col IN (?, ..., ?)`` and uncorrelated
``col IN (SELECT ...)`` predicates.

The batched level-at-a-time expand rides on the list form: one indexed
statement retrieves the children of a whole frontier.  The recursive
expand rides on the subquery form: its outer link block is driven from
the subquery side instead of scanning every link.  The planner must only
take either when it is safe (indexed column, independent items or an
uncorrelated one-column subquery) and the operator must preserve the scan
semantics exactly — duplicates deduplicated, NULL keys skipped, the
residual filter owning the three-valued logic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.sqldb import Database

T_ROWS = [(i, i % 5, f"row{i}") for i in range(20)] + [(100, None, "nullk")]


def make_db(t_rows=T_ROWS, s_rows=(), index=True):
    """``t`` (indexed nullable ``k`` unless *index* is False) and the
    subquery-side table ``s (x INTEGER, y INTEGER, w VARCHAR)``."""
    db = Database()
    db.execute_script(
        """
        CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v VARCHAR);
        CREATE TABLE s (x INTEGER, y INTEGER, w VARCHAR)
        """
    )
    if index:
        db.execute("CREATE INDEX t_k ON t (k)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)", list(t_rows))
    db.executemany("INSERT INTO s VALUES (?, ?, ?)", list(s_rows))
    return db


@pytest.fixture
def db():
    return make_db()


def plan_text(db, sql):
    return "\n".join(line for (line,) in db.execute(f"EXPLAIN {sql}").rows)


class TestPlannerChoice:
    def test_in_list_on_indexed_column_uses_multikey_lookup(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE k IN (?, ?, ?)")
        assert "MultiKeyIndexLookup(t via t_k, 3 keys)" in text

    def test_literal_in_list_also_qualifies(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE k IN (1, 2)")
        assert "MultiKeyIndexLookup(t via t_k, 2 keys)" in text

    def test_unindexed_column_falls_back_to_scan(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE v IN ('row1', 'row2')")
        assert "MultiKeyIndexLookup" not in text
        assert "SeqScan(t)" in text

    def test_not_in_falls_back_to_scan(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE k NOT IN (1, 2)")
        assert "MultiKeyIndexLookup" not in text

    def test_correlated_item_falls_back(self, db):
        # An item referencing the scanned row cannot be probed up front.
        text = plan_text(db, "SELECT * FROM t WHERE k IN (id, 1)")
        assert "MultiKeyIndexLookup" not in text

    def test_equality_and_in_prefer_single_key(self, db):
        # A plain equality conjunct is at least as selective; either
        # access path is legal, but the plan must stay indexed.
        text = plan_text(db, "SELECT * FROM t WHERE id = 3 AND k IN (1, 2)")
        assert "IndexLookup" in text


class TestOperatorSemantics:
    def test_duplicate_keys_return_rows_once(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE k IN (?, ?, ?, ?) ORDER BY 1",
            [1, 1, 1, 2],
        )
        assert [row[0] for row in result.rows] == [1, 2, 6, 7, 11, 12, 16, 17]

    def test_duplicate_keys_probe_once(self, db):
        db.execute("SELECT id FROM t WHERE k IN (?, ?, ?)", [3, 3, 3])
        assert db.last_counters["index_probes"] == 1

    def test_null_keys_are_skipped_not_probed(self, db):
        result = db.execute("SELECT id FROM t WHERE k IN (1, NULL)")
        assert len(result.rows) == 4
        assert db.last_counters["index_probes"] == 1

    def test_null_operand_rows_never_match(self, db):
        # Row 100 has k = NULL; NULL IN (...) is UNKNOWN, never TRUE.
        result = db.execute("SELECT id FROM t WHERE k IN (0, 1, 2, 3, 4)")
        assert 100 not in [row[0] for row in result.rows]
        assert len(result.rows) == 20

    def test_all_null_in_list_returns_nothing(self, db):
        result = db.execute("SELECT id FROM t WHERE k IN (NULL)")
        assert result.rows == []
        assert db.last_counters["index_probes"] == 0

    def test_agrees_with_unindexed_evaluation(self, db):
        indexed = db.execute(
            "SELECT id FROM t WHERE k IN (0, 4, NULL) ORDER BY 1"
        ).rows
        fallback = db.execute(
            "SELECT id FROM t WHERE k = 0 OR k = 4 OR k = NULL ORDER BY 1"
        ).rows
        assert indexed == fallback

    def test_residual_conjuncts_still_apply(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE k IN (1, 2) AND id < 10 ORDER BY 1"
        )
        assert [row[0] for row in result.rows] == [1, 2, 6, 7]


SUBQUERY_LOOKUP = "MultiKeyIndexLookup(t via t_k, keys from subquery)"


class TestSubqueryPlannerChoice:
    def test_indexed_in_subquery_probes_from_the_subquery_side(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE k IN (SELECT x FROM s)")
        assert SUBQUERY_LOOKUP in text
        assert "SeqScan(t)" not in text
        assert "Filter" in text  # the whole WHERE stays as residual

    @pytest.mark.parametrize(
        "where",
        [
            "k NOT IN (SELECT x FROM s)",
            "v IN (SELECT w FROM s)",  # unindexed column
            "k IN (SELECT x FROM s WHERE s.y = t.id)",  # correlated
            "k + 0 IN (SELECT x FROM s)",  # operand is not a bare column
            "k IN (SELECT x, y FROM s)",
        ],
    )
    def test_everything_else_keeps_the_scan(self, db, where):
        text = plan_text(db, f"SELECT * FROM t WHERE {where}")
        assert "MultiKeyIndexLookup" not in text
        assert "SeqScan(t)" in text

    def test_two_column_subquery_error_is_unchanged(self, db):
        with pytest.raises(ExecutionError, match="exactly one column"):
            db.execute("SELECT * FROM t WHERE k IN (SELECT x, y FROM s)")

    def test_bounded_probes_outrank_subquery_keys_without_statistics(self, db):
        # Today's plan for this statement is the one-key probe; a key set
        # of unknown size must not displace it.
        text = plan_text(
            db, "SELECT * FROM t WHERE k IN (SELECT x FROM s) AND k = 3"
        )
        assert "IndexLookup(t via t_k)" in text
        assert SUBQUERY_LOOKUP not in text

    def test_statistics_price_a_table_backed_subquery(self):
        # 21 rows in t: a 2-row subquery probes, a 40-row one loses to the
        # scan at plan time and keeps the vectorisable SeqScan + Filter.
        small = make_db(s_rows=[(1, 0, "a"), (2, 0, "b")])
        small.execute("ANALYZE")
        assert SUBQUERY_LOOKUP in plan_text(
            small, "SELECT * FROM t WHERE k IN (SELECT x FROM s)"
        )
        large = make_db(s_rows=[(i, 0, "a") for i in range(40)])
        large.execute("ANALYZE")
        text = plan_text(large, "SELECT * FROM t WHERE k IN (SELECT x FROM s)")
        assert "SeqScan(t)" in text and "MultiKeyIndexLookup" not in text

    def test_statistics_leave_a_cte_backed_subquery_to_run_time(self, db):
        db.execute("ANALYZE")
        text = plan_text(
            db,
            "WITH c (x) AS (SELECT x FROM s) "
            "SELECT * FROM t WHERE k IN (SELECT x FROM c)",
        )
        assert SUBQUERY_LOOKUP in text

    def test_probe_path_runs_on_both_operator_sets(self, row_operators):
        db = make_db(s_rows=[(1, 0, "a"), (2, 0, "b")])
        sql = "SELECT * FROM t WHERE k IN (SELECT x FROM s)"
        columnar = db.execute(sql)
        assert db.last_executor == "columnar"
        assert db.last_counters["index_probes"] == 2
        with row_operators():
            row = db.execute(sql)
        assert db.last_counters["index_probes"] == 2
        assert columnar.rows == row.rows
        assert len(row.rows) == 8


class TestSubqueryOperatorSemantics:
    SQL = "SELECT id FROM t WHERE k IN (SELECT x FROM s) ORDER BY 1"

    def ids(self, db, sql=None):
        return [row[0] for row in db.execute(sql or self.SQL).rows]

    def test_duplicate_subquery_values_probe_once(self):
        db = make_db(s_rows=[(1, 0, "a"), (1, 1, "b"), (2, 2, "c"), (1, 3, "d")])
        assert self.ids(db) == [1, 2, 6, 7, 11, 12, 16, 17]
        assert db.last_counters["index_probes"] == 2

    def test_null_in_subquery_is_not_probed_and_matches_nothing(self):
        db = make_db(s_rows=[(1, 0, "a"), (None, 1, "b")])
        assert self.ids(db) == [1, 6, 11, 16]
        assert db.last_counters["index_probes"] == 1

    def test_null_operand_rows_never_match(self):
        db = make_db(s_rows=[(i, 0, "a") for i in range(5)])
        assert 100 not in self.ids(db)
        assert len(self.ids(db)) == 20

    def test_empty_subquery_probes_and_scans_nothing(self, db):
        assert self.ids(db) == []
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == 0

    def test_string_keys_against_an_integer_index_match_like_the_scan(self):
        rows = [(1, 0, "1"), (2, 0, "row2")]
        sql = "SELECT id FROM t WHERE k IN (SELECT w FROM s) ORDER BY 1"
        assert self.ids(make_db(s_rows=rows), sql) == []
        assert self.ids(make_db(s_rows=rows, index=False), sql) == []

    def test_probe_order_is_first_seen_not_hash_order(self):
        db = make_db(
            t_rows=[(i, i % 15, f"row{i}") for i in range(60)],
            s_rows=[(4, 0, "a"), (0, 0, "b"), (2, 0, "c"), (4, 0, "d")],
        )
        ks = [
            row[0]
            for row in db.execute(
                "SELECT k FROM t WHERE k IN (SELECT x FROM s)"
            ).rows
        ]
        assert ks == [4] * 4 + [0] * 4 + [2] * 4

    def test_large_key_set_scans_at_run_time_with_identical_rows(self):
        # 4 rows per key: five keys cost 5 * 4 + 20 probing against 21
        # scanning, so the operator scans; one key (4 + 4) probes.
        s_rows = [(i, 0, "a") for i in range(5)]
        db = make_db(s_rows=s_rows)
        assert self.ids(db) == self.ids(make_db(s_rows=s_rows, index=False))
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == len(T_ROWS) + len(s_rows)
        db.execute("DELETE FROM s WHERE x > 0")
        assert self.ids(db) == [0, 5, 10, 15]
        assert db.last_counters["index_probes"] == 1

    def test_identical_subqueries_in_one_where_are_evaluated_once(self):
        db = make_db(s_rows=[(1, 1, "a"), (2, 2, "b")])
        rows = db.execute(
            "SELECT id FROM t WHERE k IN (SELECT x FROM s) "
            "AND id IN (SELECT x FROM s) ORDER BY 1"
        ).rows
        assert rows == [(1,), (2,)]
        assert db.last_counters["subquery_executions"] == 1

    def test_subqueries_differing_only_in_a_string_literal_stay_apart(self):
        db = make_db(s_rows=[(1, 1, "a"), (2, 2, "A")])
        rows = db.execute(
            "SELECT id FROM t WHERE k IN (SELECT x FROM s WHERE w = 'a') "
            "AND id IN (SELECT x FROM s WHERE w = 'A')"
        ).rows
        assert rows == []
        assert db.last_counters["subquery_executions"] == 2

    def test_parameterised_subqueries_with_equal_text_stay_apart(self):
        db = make_db(s_rows=[(1, 1, "a"), (2, 2, "b")])
        sql = (
            "SELECT id FROM t WHERE k IN (SELECT x FROM s WHERE y = ?) "
            "AND id IN (SELECT x FROM s WHERE y = ?) ORDER BY 1"
        )
        assert db.execute(sql, [1, 1]).rows == [(1,)]
        assert db.execute(sql, [1, 2]).rows == []
        # ...while the access path and the residual test of the *same*
        # subquery still share one evaluation.
        assert db.last_counters["subquery_executions"] == 2

    def test_residual_conjuncts_still_apply(self):
        db = make_db(s_rows=[(1, 0, "a"), (2, 0, "b")])
        rows = db.execute(
            "SELECT id FROM t WHERE k IN (SELECT x FROM s) AND id < 10 "
            "ORDER BY 1"
        ).rows
        assert [row[0] for row in rows] == [1, 2, 6, 7]


_KEYS = st.one_of(st.none(), st.integers(min_value=0, max_value=6))


class TestIndexDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        t_keys=st.lists(_KEYS, max_size=25),
        s_keys=st.lists(_KEYS, max_size=12),
        negated=st.booleans(),
    )
    def test_same_statement_with_and_without_the_index(
        self, t_keys, s_keys, negated
    ):
        t_rows = [(i, key, f"row{i}") for i, key in enumerate(t_keys)]
        s_rows = [(key, 0, "a") for key in s_keys]
        keyword = "NOT IN" if negated else "IN"
        sql = f"SELECT id, k FROM t WHERE k {keyword} (SELECT x FROM s)"
        indexed = make_db(t_rows, s_rows).execute(sql).rows
        scanned = make_db(t_rows, s_rows, index=False).execute(sql).rows
        assert sorted(indexed) == sorted(scanned)
