"""Ablation A2 — uncorrelated-subquery caching (paper Section 5.3.1).

"Please note that rec_table occurs in the outer and in the inner clause!
But an intelligent query optimizer will recognize that the inner clause
needs to be evaluated only once, as it is an uncorrelated sub-query."

This bench measures the engine with and without that optimisation on the
∀rows all-or-nothing query shape, at a size where the difference is the
asymptotic O(n) vs O(n²).
"""

import pytest

from repro.sqldb import Database

ROWS = 1000


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.execute("CREATE TABLE nodes (obid INTEGER PRIMARY KEY, dec CHAR(1))")
    db.executemany(
        "INSERT INTO nodes VALUES (?, ?)",
        [(i, "+") for i in range(ROWS)],
    )
    return db

ALL_OR_NOTHING = (
    "SELECT * FROM nodes WHERE NOT EXISTS "
    "(SELECT * FROM nodes WHERE dec <> '+')"
)


def test_bench_with_cache(benchmark, db):
    db.enable_subquery_cache = True

    def run():
        return db.execute(ALL_OR_NOTHING)

    result = benchmark(run)
    assert len(result) == ROWS


def test_bench_without_cache(benchmark, db):
    db.enable_subquery_cache = False

    def run():
        return db.execute(ALL_OR_NOTHING)

    result = benchmark(run)
    db.enable_subquery_cache = True
    assert len(result) == ROWS


def test_cache_reduces_subquery_executions(db):
    from repro.sqldb.executor import ExecutionEnv
    from repro.sqldb.parser import parse_statement
    from repro.sqldb.planner import Planner
    from repro.sqldb.recursive import run_plan

    plan = Planner(db.catalog, db.functions).plan_select(
        parse_statement(ALL_OR_NOTHING)
    )
    cached_env = ExecutionEnv(functions=db.functions)
    run_plan(plan, cached_env)
    uncached_env = ExecutionEnv(functions=db.functions)
    uncached_env.enable_subquery_cache = False
    run_plan(plan, uncached_env)
    assert cached_env.counters["subquery_executions"] == 1
    assert uncached_env.counters["subquery_executions"] == ROWS
