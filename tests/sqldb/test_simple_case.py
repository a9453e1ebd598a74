"""A simple CASE (``CASE k WHEN v THEN …``) is the searched CASE that
tests ``k = v``: a NULL operand or a NULL WHEN value never matches.
Checked against SQLite, with and without ELSE, over NULLs and nested."""

import sqlite3

import pytest

from repro.sqldb import Database

ROWS = [(1, 1, "a"), (2, 2, "b"), (3, None, "c"), (4, 3, None), (5, 1, "a")]

QUERIES = [
    "SELECT id, CASE k WHEN 1 THEN 10 ELSE 20 END FROM t",
    "SELECT id, CASE k WHEN 1 THEN 10 WHEN 2 THEN 20 END FROM t",
    "SELECT id, CASE k WHEN NULL THEN 1 ELSE 0 END FROM t",
    "SELECT id, CASE NULL WHEN NULL THEN 1 ELSE 0 END FROM t",
    "SELECT id, CASE s WHEN 'a' THEN k WHEN 'b' THEN -k ELSE NULL END FROM t",
    "SELECT id, CASE k + 1 WHEN 2 THEN 'two' WHEN 3 THEN 'three' ELSE 'other' END FROM t",
    "SELECT id, CASE k WHEN 1 THEN CASE s WHEN 'a' THEN 'k1a' ELSE 'k1' END "
    "ELSE CASE WHEN s IS NULL THEN 'none' ELSE s END END FROM t",
    "SELECT id, CASE CASE k WHEN 1 THEN 2 ELSE k END WHEN 2 THEN 'two' END FROM t",
    "SELECT id FROM t WHERE CASE k WHEN 1 THEN 1 ELSE 0 END = 1",
    "SELECT CASE k WHEN 1 THEN 'one' ELSE 'many' END, COUNT(*) FROM t "
    "GROUP BY CASE k WHEN 1 THEN 'one' ELSE 'many' END",
    "SELECT id, CASE ? WHEN k THEN 'hit' ELSE 'miss' END FROM t",
]


@pytest.fixture(scope="module")
def engines():
    ours = Database()
    ours.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s VARCHAR(5))")
    ours.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    return ours, oracle


@pytest.mark.parametrize("sql", QUERIES)
def test_simple_case_agrees_with_sqlite(engines, sql):
    ours, oracle = engines
    params = (2,) if "?" in sql else ()
    assert sorted(ours.execute(sql, params).rows, key=repr) == sorted(
        oracle.execute(sql, params).fetchall(), key=repr
    )
