"""Ablation A2 — uncorrelated-subquery caching (paper Section 5.3.1).

"Please note that rec_table occurs in the outer and in the inner clause!
But an intelligent query optimizer will recognize that the inner clause
needs to be evaluated only once, as it is an uncorrelated sub-query."

This bench measures the engine with and without that optimisation on the
∀rows all-or-nothing query shape, at a size where the difference is the
asymptotic O(n) vs O(n²).  The engine always caches an uncorrelated
subquery; "without" is the same test made correlated by a no-op outer
reference, which the engine re-runs for every outer row by definition.
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

#: The same test, correlated by an outer reference that is always TRUE.
CORRELATED = (
    "SELECT * FROM nodes o WHERE NOT EXISTS "
    "(SELECT * FROM nodes WHERE dec <> '+' AND o.obid = o.obid)"
)


def test_bench_with_cache(benchmark, db):
    def run():
        return db.execute(ALL_OR_NOTHING)

    result = benchmark(run)
    assert len(result) == ROWS


def test_bench_without_cache(benchmark, db):
    def run():
        return db.execute(CORRELATED)

    result = benchmark(run)
    assert len(result) == ROWS


def test_cache_reduces_subquery_executions(db):
    from repro.sqldb.executor import ExecutionEnv
    from repro.sqldb.parser import parse_statement
    from repro.sqldb.planner import Planner
    from repro.sqldb.recursive import run_plan

    def executions(sql):
        plan = Planner(db.catalog, db.functions).plan_select(parse_statement(sql))
        env = ExecutionEnv(functions=db.functions)
        run_plan(plan, env)
        return env.counters["subquery_executions"]

    assert executions(ALL_OR_NOTHING) == 1
    assert executions(CORRELATED) == ROWS
