"""Property test: the costed planner never changes query results.

Two databases hold identical data; one is never ANALYZEd, so it plans
rule-based, the other prices its paths with fresh ANALYZE statistics.  Whatever plans they pick
(seq scans, index probes, reordered comma joins), the answers must be
identical — ordered when the query orders, as multisets otherwise.
This is the safety net behind turning cost-based planning on by
default.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # a: skewed, indexed
        st.integers(min_value=-5, max_value=5),  # b: few distinct values
        st.one_of(st.none(), st.integers(min_value=0, max_value=100)),  # v
    ),
    min_size=0,
    max_size=60,
)

QUERIES = [
    ("SELECT * FROM t WHERE a = ?", (3,)),
    ("SELECT * FROM t WHERE a = ? AND b = ?", (3, 1)),
    ("SELECT id FROM t WHERE id = ?", (5,)),
    ("SELECT id FROM t WHERE a IN (1, 1, 2, 3)", ()),
    ("SELECT * FROM t WHERE a = ? OR b = ?", (2, -1)),
    ("SELECT * FROM t WHERE v IS NULL", ()),
    ("SELECT COUNT(*), SUM(v) FROM t WHERE a < ?", (10,)),
    ("SELECT * FROM t ORDER BY id", ()),
    (
        "SELECT t.id, o.id FROM t, o WHERE o.id = ? AND o.b = t.b",
        (2,),
    ),
    (
        "SELECT t.id, o.id FROM t JOIN o ON t.b = o.b WHERE t.a = ?",
        (1,),
    ),
]


def build(rows):
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
        "v INTEGER)"
    )
    db.execute("CREATE INDEX t_a ON t (a)")
    db.execute("CREATE TABLE o (id INTEGER PRIMARY KEY, b INTEGER)")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?)",
        [(i, a, b, v) for i, (a, b, v) in enumerate(rows)],
    )
    db.executemany(
        "INSERT INTO o VALUES (?, ?)",
        [(i, (i * 3) % 7 - 3) for i in range(10)],
    )
    return db


@given(rows_strategy)
@settings(max_examples=25, deadline=None)
def test_cost_and_rule_planners_agree(rows):
    rule_db = build(rows)
    cost_db = build(rows)
    cost_db.execute("ANALYZE")
    for sql, params in QUERIES:
        rule_result = rule_db.execute(sql, params)
        cost_result = cost_db.execute(sql, params)
        assert cost_result.columns == rule_result.columns, sql
        if "ORDER BY" in sql:
            assert cost_result.rows == rule_result.rows, sql
        else:
            assert Counter(cost_result.rows) == Counter(rule_result.rows), sql


@given(rows_strategy)
@settings(max_examples=10, deadline=None)
def test_stale_stats_never_change_results(rows):
    """Statistics collected before the data changed (every row deleted
    and reinserted shifted) may mislead the cost model, but never the
    answer."""
    cost_db = build(rows)
    cost_db.execute("ANALYZE")
    cost_db.execute("DELETE FROM t WHERE a >= ?", (15,))
    rule_db = build(rows)
    rule_db.execute("DELETE FROM t WHERE a >= ?", (15,))
    for sql, params in QUERIES:
        rule_result = rule_db.execute(sql, params)
        cost_result = cost_db.execute(sql, params)
        if "ORDER BY" in sql:
            assert cost_result.rows == rule_result.rows, sql
        else:
            assert Counter(cost_result.rows) == Counter(rule_result.rows), sql
