"""Ablation A6 — semi-naive vs naive recursive fixpoint.

The engine design choice that makes SQL:1999 recursion viable: each
fixpoint round joins only the previous round's *delta* against the link
table (semi-naive), instead of re-joining everything accumulated so far
(naive).  On a depth-N chain the naive algorithm does O(N²) index probes,
the semi-naive O(N) — footnote 1 of the paper already points at
"efficient implementations for the processing of recursive SQL queries"
as the enabler of the flat representation.

The engine has one fixpoint, the semi-naive one.  The naive baseline is
SQL the engine runs: a loop of non-recursive ``INSERT ... SELECT``
rounds, each joining the whole accumulated table against the link table
and keeping the rows not accumulated yet, until a round adds nothing.
"""

import pytest

from repro.sqldb import Database

CHAIN = 400

SQL = (
    "WITH RECURSIVE r (n) AS "
    "(SELECT 0 UNION SELECT d FROM r JOIN e ON r.n = e.s) "
    "SELECT COUNT(*) FROM r"
)

NAIVE_ROUND = (
    "INSERT INTO acc SELECT DISTINCT e.d FROM acc JOIN e ON acc.n = e.s "
    "WHERE e.d NOT IN (SELECT n FROM acc)"
)


@pytest.fixture(scope="module")
def chain_db():
    db = Database()
    db.execute("CREATE TABLE e (s INTEGER, d INTEGER)")
    db.execute("CREATE INDEX e_s ON e (s)")
    db.executemany(
        "INSERT INTO e VALUES (?, ?)", [(i, i + 1) for i in range(CHAIN)]
    )
    return db


def naive_fixpoint(db):
    """The chain's nodes by the naive fixpoint, and the index probes of
    all its rounds."""
    if "acc" in db.table_names():
        db.execute("DROP TABLE acc")
    db.execute("CREATE TABLE acc (n INTEGER)")
    db.execute("INSERT INTO acc VALUES (0)")
    probes = 0
    while True:
        added = db.execute(NAIVE_ROUND).rowcount
        probes += db.last_counters["index_probes"]
        if not added:
            break
    return db.execute("SELECT n FROM acc ORDER BY 1").rows, probes


def test_bench_seminaive(benchmark, chain_db):
    def run():
        return chain_db.execute(SQL).scalar()

    assert benchmark(run) == CHAIN + 1
    assert chain_db.last_counters["index_probes"] <= 2 * CHAIN


def test_bench_naive(benchmark, chain_db):
    rows, probes = benchmark.pedantic(
        naive_fixpoint, args=(chain_db,), rounds=1, iterations=1
    )
    assert len(rows) == CHAIN + 1
    # Quadratic probe count: every round re-probes the whole history.
    assert probes > CHAIN * CHAIN / 4


def test_both_modes_agree_on_results(benchmark, chain_db):
    def run():
        fast = chain_db.execute(
            "WITH RECURSIVE r (n) AS "
            "(SELECT 0 UNION SELECT d FROM r JOIN e ON r.n = e.s) "
            "SELECT n FROM r ORDER BY 1"
        ).rows
        slow, __ = naive_fixpoint(chain_db)
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    assert fast == slow
