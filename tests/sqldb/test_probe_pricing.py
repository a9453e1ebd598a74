"""Run-time pricing of index probes, and the batch body it makes possible.

Every index probe whose keys are known only at run time — one ``col =
?`` key, an ``IN (?, ...)`` list, an uncorrelated subquery's value set —
prices those keys against one scan of the table as it stands, each time
it runs: ``index_probe_cost(keys, keys × rows ÷ distinct keys)`` against
``seq_scan_cost(rows)``, from the live row count and the index's own
bucket count.  When the scan wins, the node *is* a scan (the cached
column chunks, on the batch operators).  That is safe because the
planner keeps the whole WHERE as the residual ``Filter`` above every
access path — the last test pins that invariant over the PDM template
corpus.  A unique index is never priced: its probe returns at most one
row.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.templates import template_queries
from repro.pdm.generator import figure2_dataset
from repro.pdm.schema import create_pdm_schema, load_product
from repro.sqldb import Database
from repro.sqldb.executor import (
    ExecutionEnv,
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    MultiKeyIndexLookup,
    NestedLoopJoin,
    _IndexProbe,
)
from repro.sqldb.explain import plan_operators
from repro.sqldb.parser import parse_statement
from repro.sqldb.stats import index_probe_cost, seq_scan_cost
from tests.sqldb.test_differential import parameter_count
from tests.sqldb.test_sqlite_oracle import sqlite_twin

AUDIT = "SELECT COUNT(*), SUM(w) FROM t WHERE product = ?"

JOINS = (HashJoin, IndexNestedLoopJoin, NestedLoopJoin)


def make_db(keys, unique=False):
    """``t (id, product, w)``: one row per entry of *keys* (its
    ``product``), ``product`` indexed (uniquely if *unique*)."""
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, product INTEGER, w INTEGER)")
    db.execute(
        f"CREATE {'UNIQUE ' if unique else ''}INDEX t_product ON t (product)"
    )
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(row_id, key, row_id % 7) for row_id, key in enumerate(keys)],
    )
    return db


def analyze_lines(db, sql, params=()):
    return [line for (line,) in db.execute(f"EXPLAIN ANALYZE {sql}", list(params)).rows]


def probe_line(lines):
    (line,) = [line for line in lines if "IndexLookup(" in line]
    return line


class TestPricing:
    def test_a_one_key_index_scans_on_the_batch_operators(self):
        """The audit's shape: the one key is the whole table."""
        db = make_db([1] * 200)
        assert db.execute(AUDIT, [1]).rows == [(200, sum(i % 7 for i in range(200)))]
        assert db.last_executor == "columnar"
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == 200
        lines = analyze_lines(db, AUDIT, [1])
        assert "keys=1 scanned" in probe_line(lines)
        assert "Executor: columnar" in lines

    def test_a_selective_index_still_probes(self):
        db = make_db([i % 50 for i in range(200)])
        assert db.execute(AUDIT, [7]).scalar() == 4
        assert db.last_executor == "columnar"
        assert db.last_counters["index_probes"] == 1
        assert db.last_counters["rows_scanned"] == 4
        assert "keys=1 probed" in probe_line(analyze_lines(db, AUDIT, [7]))

    def test_a_unique_index_is_never_priced(self):
        """Three rows: priced, one probe (4 + 1) would lose to the scan (3)."""
        db = make_db([10, 20, 30], unique=True)
        assert db.execute(AUDIT, [20]).scalar() == 1
        assert db.last_counters["index_probes"] == 1
        assert db.last_counters["rows_scanned"] == 1
        line = probe_line(analyze_lines(db, AUDIT, [20]))
        assert "keys=" not in line
        db.execute("SELECT id FROM t WHERE product IN (10, 20, 30)")
        assert db.last_counters["index_probes"] == 3

    def test_an_in_list_is_priced_by_its_distinct_keys(self):
        db = make_db([i % 4 for i in range(40)])  # ten rows a key
        sql = "SELECT id FROM t WHERE product IN (?, ?, ?)"
        assert len(db.execute(sql, [1, 1, 1]).rows) == 10  # 4 + 10 < 40
        assert db.last_counters["index_probes"] == 1
        assert len(db.execute(sql, [1, 2, 3]).rows) == 30  # 12 + 30 >= 40
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == 40

    def test_a_cached_plan_is_priced_against_the_table_as_it_stands(self):
        db = make_db([i % 50 for i in range(200)])
        db.execute(AUDIT, [3])
        assert db.last_counters["index_probes"] == 1
        db.execute("UPDATE t SET product = 3")
        hits = db.statistics["plan_cache_hits"]
        assert db.execute(AUDIT, [3]).scalar() == 200
        assert db.statistics["plan_cache_hits"] == hits + 1
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == 200

    def test_a_write_locates_its_rows_by_the_same_price(self):
        """Seven rows on two keys: one probe (4 + 3.5) loses to the scan."""
        db = make_db([1] * 5 + [2] * 2)
        result = db.execute("UPDATE t SET w = 0 WHERE product = ?", [1])
        assert result.rowcount == 5
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == 7
        assert db.execute("SELECT SUM(w) FROM t").scalar() == 5 + 6


#: Key skew of the snapshot property: ``hot`` rows on the audited key 0,
#: then ``cold`` rows on keys of their own.
HOT = st.integers(min_value=0, max_value=40)
COLD = st.lists(st.integers(min_value=1, max_value=12), max_size=40)
#: Autocommit writes beside the open snapshot: (kind, which row).
WRITES = st.lists(
    st.tuples(
        st.sampled_from(["move-in", "move-out", "delete", "insert"]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=8,
)


class TestPricedOutUnderASnapshot:
    @settings(max_examples=60, deadline=None)
    @given(hot=HOT, cold=COLD, writes=WRITES)
    @example(hot=30, cold=[], writes=[("move-out", 3), ("delete", 5)])  # scans
    @example(hot=3, cold=list(range(1, 13)) * 3, writes=[("move-in", 20)])  # probes
    def test_the_answer_is_the_probes_multiset(
        self, row_operators, hot, cold, writes
    ):
        """A READ ONLY snapshot opened before autocommit writers move rows
        into and out of the audited key, delete and insert: whether the
        probe is priced out or not, the reader's answer is the multiset the
        probe sees at its stamp, SQLite's over the rows at BEGIN, and the
        row operators'."""
        keys = [0] * hot + cold
        db = make_db(keys)
        at_begin = [(row_id, key, row_id % 7) for row_id, key in enumerate(keys)]
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        next_id = len(keys)
        for kind, pick in [("insert", 0)] + writes:
            live = [row_id for (row_id,) in db.execute("SELECT id FROM t").rows]
            if kind == "insert":
                db.execute("INSERT INTO t VALUES (?, 0, 1)", [next_id])
                next_id += 1
            elif live:
                target = live[pick % len(live)]
                if kind == "delete":
                    db.execute("DELETE FROM t WHERE id = ?", [target])
                else:
                    db.execute(
                        "UPDATE t SET product = ? WHERE id = ?",
                        [0 if kind == "move-in" else 99, target],
                    )
        assert db.mvcc.chain_count() > 0

        sql = "SELECT id, product, w FROM t WHERE product = ?"
        answer = Counter(db.execute(sql, [0], session="reader").rows)
        assert db.last_executor == "columnar"
        probes = db.last_counters["index_probes"]
        # The live heap as the index sees it: NULL keys are never indexed.
        table_rows, distinct = db.execute(
            "SELECT COUNT(*), COUNT(DISTINCT product) FROM t"
        ).rows[0]
        rows_out = table_rows / distinct if distinct else 0.0
        priced_out = index_probe_cost(1, rows_out) >= seq_scan_cost(table_rows)
        assert probes == (0 if priced_out else 1)

        snapshot = db._transactions["reader"].snapshot
        storage = db.catalog.lookup("t").storage
        probed = storage.probe(storage.find_index(["product"]), (0,), snapshot)
        assert answer == Counter(probed)
        assert answer == Counter(row for row in at_begin if row[1] == 0)
        oracle = sqlite_twin({"t": (("id", "product", "w"), at_begin)})
        try:
            assert answer == Counter(oracle.execute(sql, [0]).fetchall())
        finally:
            oracle.close()
        with row_operators():
            rows = db.execute(sql, [0], session="reader").rows
        assert answer == Counter(rows)
        db.execute("COMMIT", session="reader")


def noisy_figure2() -> Database:
    """The Figure 2 product plus a shifted copy of every row whose ids,
    parents, children and product are all 10 000 higher: rows that no
    template key of the original product matches, so a filter that lost
    its conjunct would let them through a scan."""
    db = Database()
    create_pdm_schema(db)
    load_product(db, figure2_dataset())
    shifted = {"obid", "left", "right", "product"}
    for table in db.table_names():
        columns = db.catalog.lookup(table).schema.column_names
        select = ", ".join(
            f"{column} + 10000" if column in shifted else column for column in columns
        )
        db.execute(f"INSERT INTO {table} SELECT {select} FROM {table}")
    return db


def probes_with_guards(plan):
    """``(probe, guard)`` for every index probe in *plan* — the plans of
    subqueries that supply a probe's keys included — where *guard* is the
    first node above the probe that is not a join."""
    found = []
    pending = [plan]
    while pending:
        operators = plan_operators(pending.pop())
        parents = {id(child): node for node in operators for child in node.children}
        for operator in operators:
            if isinstance(operator, _IndexProbe):
                guard = parents.get(id(operator))
                while isinstance(guard, JOINS):
                    guard = parents.get(id(guard))
                found.append((operator, guard))
            if isinstance(operator, MultiKeyIndexLookup) and operator.subquery:
                pending.append(operator.subquery.plan)
    return found


def run_template(db, sql):
    """The rows a SELECT template returns, or the row ids a DML template's
    target plan locates, bound to the Figure 2 root."""
    params = [1] * parameter_count(sql)
    if sql.lstrip().upper().startswith(("SELECT", "WITH")):
        return Counter(db.execute(sql, params).rows)
    plan = db.plan_statement(parse_statement(sql))
    return Counter(plan.root.row_ids(ExecutionEnv(params=params)))


TEMPLATES = template_queries()


class TestScanningIsSafe:
    def test_every_corpus_probe_sits_under_a_filter(self):
        """Directly, or above the joins the probe feeds."""
        db = noisy_figure2()
        probes = 0
        for name, sql in TEMPLATES:
            for probe, guard in probes_with_guards(
                db.plan_statement(parse_statement(sql))
            ):
                assert isinstance(guard, Filter), (name, probe.label())
                probes += 1
        assert probes >= len(TEMPLATES)

    @pytest.mark.parametrize("name,sql", TEMPLATES, ids=[n for n, __ in TEMPLATES])
    def test_every_template_answers_the_same_when_every_probe_scans(
        self, monkeypatch, name, sql
    ):
        """The filter above each probe still carries the probe's conjunct:
        turning every probe into a scan of its whole table — shifted copy
        included — changes no template's answer."""
        db = noisy_figure2()
        probed = run_template(db, sql)
        monkeypatch.setattr(_IndexProbe, "_priced_keys", lambda self, env: None)
        scanned = run_template(db, sql)
        assert scanned == probed

