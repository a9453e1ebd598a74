"""One inner-join graph per SELECT core, checked against ``sqlite3``.

The INNER joins and comma items of a core are planned as one graph: the
ON and WHERE conjuncts form one pool, a single-table conjunct is filtered
directly over its table's access path (once the table has statistics),
every cross-table equality is a join key, a graph of analysed base tables
is ordered by estimated cardinality, and each join prices an index
nested-loop join against a hash join.  A LEFT JOIN is a barrier.  None of
that may change an answer, so every case here runs before and after
``ANALYZE`` and is compared, as a multiset, with SQLite running the same
text (see ``test_sqlite_oracle.py`` for the catalogue of divergences the
comparison neutralises).

The last classes pin the two ``report_scan`` join shapes in ``EXPLAIN``
and time the comma join that used to run as a cartesian product.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.model.parameters import TreeParameters
from repro.pdm.generator import generate_product
from repro.pdm.schema import load_product, new_pdm_database
from repro.sqldb import Database
from tests.sqldb.test_sqlite_oracle import sqlite_twin

SCHEMA = {
    "r": ("id", "k", "v"),
    "s": ("id", "rk", "w"),
    "t": ("id", "sk", "x"),
}

#: Join edges of the r–s–t chain, keyed by the pair of tables they link.
EDGES = {
    frozenset("rs"): "r.k = s.rk",
    frozenset("st"): "s.id = t.sk",
}


def build(tables, analyzed):
    """Both engines over *tables* (``{name: rows}``); s.rk and t.sk are
    indexed, so a key can be probed as well as hashed."""
    db = Database()
    for name, columns in SCHEMA.items():
        db.execute(
            f"CREATE TABLE {name} ({columns[0]} INTEGER PRIMARY KEY, "
            f"{columns[1]} INTEGER, {columns[2]} INTEGER)"
        )
        db.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", tables[name])
    db.execute("CREATE INDEX s_rk ON s (rk)")
    db.execute("CREATE INDEX t_sk ON t (sk)")
    if analyzed:
        db.execute("ANALYZE")
    oracle = sqlite_twin(
        {name: (SCHEMA[name], rows) for name, rows in tables.items()}
    )
    return db, oracle


def fixed_tables():
    """NULL and duplicate join keys on every edge, rows matching nothing,
    and sizes far enough apart that the cost model reorders."""
    rng = random.Random(7)
    r = [(i, None if i % 9 == 0 else i % 6, i % 10) for i in range(40)]
    s = [
        (i, None if i % 7 == 0 else rng.randrange(8), rng.randrange(20))
        for i in range(120)
    ]
    t = [(i, None if i % 5 == 0 else rng.randrange(130), i % 4) for i in range(25)]
    return {"r": r, "s": s, "t": t}


@pytest.fixture(scope="module", params=[False, True], ids=["no-stats", "analyzed"])
def engines(request):
    db, oracle = build(fixed_tables(), request.param)
    yield db, oracle
    oracle.close()


def same_rows(db, oracle, sql):
    ours = Counter(db.execute(sql).rows)
    theirs = Counter(oracle.execute(sql).fetchall())
    assert ours == theirs, sql
    return sum(ours.values())


def chain_sql(order, filters="s.w < 12 AND r.v > 1"):
    """The r–s–t chain as INNER JOINs written in *order*: each ON holds
    the edges its join closes (``1 = 1`` when it closes none)."""
    sql = f"SELECT r.id, s.id, t.id, r.v, s.w, t.x FROM {order[0]}"
    seen = {order[0]}
    for name in order[1:]:
        edges = [
            edge for pair, edge in EDGES.items() if name in pair and pair - {name} <= seen
        ]
        sql += f" JOIN {name} ON {' AND '.join(edges) or '1 = 1'}"
        seen.add(name)
    return f"{sql} WHERE {filters}"


def comma_sql(order, filters="s.w < 12 AND r.v > 1"):
    return (
        f"SELECT r.id, s.id, t.id, r.v, s.w, t.x FROM {', '.join(order)} "
        f"WHERE {' AND '.join(EDGES.values())} AND {filters}"
    )


ORDERS = ["".join(order) for order in itertools.permutations("rst")]


class TestInnerChains:
    @pytest.mark.parametrize("order", ORDERS)
    def test_every_written_order_of_the_join_chain(self, engines, order):
        assert same_rows(*engines, chain_sql(order)) > 0

    @pytest.mark.parametrize("order", ORDERS)
    def test_every_written_order_of_the_comma_list(self, engines, order):
        assert same_rows(*engines, comma_sql(order)) > 0

    def test_every_order_gives_one_answer(self, engines):
        db = engines[0]
        answers = {
            frozenset(Counter(db.execute(build_sql(order)).rows).items())
            for order in ORDERS
            for build_sql in (chain_sql, comma_sql)
        }
        assert len(answers) == 1

    @pytest.mark.parametrize(
        "sql",
        [
            # A filter in ON and the same filter in WHERE.
            "SELECT r.id, s.id FROM r JOIN s ON r.k = s.rk AND s.w > 5",
            "SELECT r.id, s.id FROM r JOIN s ON r.k = s.rk WHERE s.w > 5",
            # A cross-table equality only in WHERE, under explicit JOIN syntax.
            "SELECT r.id, s.id FROM r CROSS JOIN s WHERE r.k = s.rk AND r.v < 4",
            # Two keys on one edge, one of them only in WHERE.
            "SELECT r.id, s.id FROM r JOIN s ON r.k = s.rk WHERE r.v = s.w",
            # A non-equi ON conjunct next to the key: the join's residual.
            "SELECT r.id, s.id FROM r JOIN s ON r.k = s.rk AND r.v < s.w",
            # Only a non-equi edge: a nested loop.
            "SELECT r.id, t.id FROM r JOIN t ON r.v > t.x WHERE t.sk IS NULL",
            # Unqualified names that resolve to one table each.
            "SELECT r.id, s.id FROM r, s WHERE k = rk AND w BETWEEN 3 AND 9",
            # A comma item beside a JOIN; the ON sees only its own tables.
            "SELECT t.id, r.id, s.id FROM t, r JOIN s ON r.k = s.rk "
            "WHERE s.id = t.sk AND t.x IN (0, 2)",
            # Single-table predicates of every pushable shape.
            "SELECT r.id, s.id FROM r JOIN s ON r.k = s.rk WHERE "
            "(s.w >= 2 OR s.w IS NULL) AND NOT s.id IN (3, 4, 5) AND r.v <> -1",
            # Arithmetic and function calls stay above the joins.
            "SELECT r.id, s.id FROM r JOIN s ON r.k = s.rk "
            "WHERE s.w + 1 > 6 AND ABS(r.v) < 8",
            # An aggregate over the join, like report_scan's roll-up.
            "SELECT r.k, COUNT(*), SUM(s.w) FROM r JOIN s ON r.k = s.rk "
            "WHERE s.w >= 10 GROUP BY r.k",
            # A filter in ON on the probed side of an index join.
            "SELECT t.id, s.id FROM t JOIN s ON s.id = t.sk AND s.w > 5",
            # A self-join under two aliases.
            "SELECT a.id, b.id FROM s AS a JOIN s AS b ON a.rk = b.rk WHERE a.w < b.w",
        ],
    )
    def test_predicate_placement(self, engines, sql):
        same_rows(*engines, sql)


def test_an_on_clause_sees_only_its_own_join():
    """Standard SQL scopes an ON clause to its join's operands, so the bare
    ``k`` below is ``a.k`` although the comma item ``c`` has a ``k`` too —
    in every plan order.  (SQLite calls the name ambiguous instead.)"""
    for analyzed in (False, True):
        db = Database()
        db.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER, k2 INTEGER)")
        db.execute("CREATE TABLE c (k INTEGER, z INTEGER)")
        db.executemany("INSERT INTO a VALUES (?, ?)", [(1, 1), (2, 2), (3, 9)])
        db.executemany("INSERT INTO b VALUES (?, ?)", [(10, 1), (20, 2)])
        db.executemany("INSERT INTO c VALUES (?, ?)", [(5, 0), (6, 0)])
        if analyzed:
            db.execute("ANALYZE")
        rows = db.execute("SELECT a.id, b.id, c.k FROM c, a JOIN b ON k = k2").rows
        assert Counter(rows) == Counter(
            (a, b, c) for a, b in ((1, 10), (2, 20)) for c in (5, 6)
        )


class TestAKeyOfTheOtherKind:
    """``a.x = b.s`` of an INTEGER and a VARCHAR column raises as ``=`` does
    in a filter, whichever join plans it: a hash join (INNER, or a comma
    list's equality), a nested loop (LEFT) or, once ``b.s`` is indexed, an
    index join, whose probed column's declared type stands for its values;
    so does ``b.s = 1`` scanned or through ``IndexLookup``.  Adding an index
    never turns the error into rows, nor changes its text.  A NULL key finds
    nothing."""

    PLANS = {
        "SELECT * FROM a JOIN b ON a.x = b.s": ("HashJoin", "IndexNestedLoopJoin(INNER"),
        "SELECT * FROM a LEFT JOIN b ON a.x = b.s": (
            "NestedLoopJoin(LEFT)",
            "IndexNestedLoopJoin(LEFT",
        ),
        "SELECT * FROM a, b WHERE a.x = b.s": ("HashJoin", "IndexNestedLoopJoin(INNER"),
        "SELECT * FROM b JOIN a ON b.s = a.x": ("HashJoin", "HashJoin"),
        "SELECT * FROM b WHERE s = 1": ("SeqScan(b)", "IndexLookup(b via b_s)"),
        "SELECT * FROM b WHERE 1 = s": ("SeqScan(b)", "IndexLookup(b via b_s)"),
    }

    @staticmethod
    def build(indexed, a_rows):
        db = Database()
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (s VARCHAR(8))")
        db.executemany("INSERT INTO a VALUES (?)", a_rows)
        db.executemany("INSERT INTO b VALUES (?)", [(str(i),) for i in range(5)])
        if indexed:
            db.execute("CREATE INDEX b_s ON b (s)")
        return db

    @pytest.mark.parametrize("indexed", [False, True], ids=["no index", "indexed"])
    @pytest.mark.parametrize("sql", sorted(PLANS))
    def test_every_plan_raises(self, sql, indexed):
        """With the same message with and without the index."""
        messages = []
        for arm in (indexed, not indexed):
            db = self.build(arm, [(i,) for i in range(5)])
            assert self.PLANS[sql][arm] in "\n".join(plan_lines(db, sql))
            with pytest.raises(TypeMismatchError, match="cannot compare") as raised:
                db.execute(sql)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "column_type, value, key, message",
        [
            ("INTEGER", lambda i: i, "'a'", "cannot compare int with str"),
            ("DOUBLE", lambda i: i * 0.5, "'a'", "cannot compare float with str"),
            ("BOOLEAN", lambda i: i % 2 == 0, "'a'", "cannot compare bool with str"),
            ("VARCHAR(8)", lambda i: f"v{i}", "1.5", "cannot compare float with str"),
        ],
        ids=["INTEGER", "DOUBLE", "BOOLEAN", "VARCHAR"],
    )
    def test_a_probe_names_the_declared_kind(self, column_type, value, key, message):
        """``w = key`` scanned and through ``IndexLookup`` on 300 rows (so
        the probe is not priced out): one message, which names the kind of
        ``w``'s values for a key of the other kind."""
        sql = f"SELECT * FROM d WHERE w = {key}"
        for indexed in (False, True):
            db = Database()
            db.execute(f"CREATE TABLE d (id INTEGER PRIMARY KEY, w {column_type})")
            db.executemany("INSERT INTO d VALUES (?, ?)", [(i, value(i)) for i in range(300)])
            if indexed:
                db.execute("CREATE INDEX d_w ON d (w)")
            access = "IndexLookup(d via d_w)" if indexed else "SeqScan(d)"
            assert access in "\n".join(plan_lines(db, sql))
            with pytest.raises(TypeMismatchError) as raised:
                db.execute(sql)
            assert str(raised.value) == message

    @pytest.mark.parametrize("indexed", [False, True], ids=["no index", "indexed"])
    def test_a_null_key_finds_nothing(self, indexed):
        db = self.build(indexed, [(None,), (None,)])
        assert db.execute("SELECT * FROM a JOIN b ON a.x = b.s").rows == []
        assert db.execute("SELECT * FROM a, b WHERE a.x = b.s").rows == []
        assert db.execute("SELECT * FROM a LEFT JOIN b ON a.x = b.s").rows == [(None, None)] * 2


class TestLeftJoinBarrier:
    @pytest.mark.parametrize(
        "sql",
        [
            # The anti-join: pushing r.x IS NULL below the join would keep
            # the padded rows *and* the matched ones.
            "SELECT r.id FROM r LEFT JOIN s ON r.k = s.rk WHERE s.id IS NULL",
            "SELECT r.id, s.w FROM r LEFT JOIN s ON r.k = s.rk WHERE s.w IS NULL",
            # An ON filter on the null-extended side pads, a WHERE one drops.
            "SELECT r.id, s.id FROM r LEFT JOIN s ON r.k = s.rk AND s.w > 15",
            "SELECT r.id, s.id FROM r LEFT JOIN s ON r.k = s.rk WHERE s.w > 15",
            # A LEFT JOIN after an INNER chain, and an INNER join after it.
            "SELECT r.id, s.id, t.id FROM r JOIN s ON r.k = s.rk "
            "LEFT JOIN t ON t.sk = s.id WHERE t.id IS NULL AND r.v < 7",
            "SELECT r.id, s.id, t.id FROM r LEFT JOIN s ON r.k = s.rk "
            "JOIN t ON t.sk = s.id WHERE t.x > 0",
            "SELECT t.id, r.id, s.id FROM t, r LEFT JOIN s ON r.k = s.rk "
            "WHERE r.k = t.x",
        ],
    )
    def test_left_join_is_a_barrier(self, engines, sql):
        same_rows(*engines, sql)

    def test_the_anti_join_keeps_the_rows_with_a_null_key(self, engines):
        db, __ = engines
        unmatched = db.execute(
            "SELECT r.id FROM r LEFT JOIN s ON r.k = s.rk WHERE s.id IS NULL"
        ).rows
        assert {(i,) for i in range(0, 40, 9)} <= set(unmatched)


def chain_tables():
    key = st.one_of(st.none(), st.integers(min_value=0, max_value=5))
    value = st.integers(min_value=0, max_value=9)
    return st.fixed_dictionaries(
        {
            name: st.lists(st.tuples(key, value), max_size=20).map(
                lambda rows: [(i, k, v) for i, (k, v) in enumerate(rows)]
            )
            for name in SCHEMA
        }
    )


@settings(max_examples=30, deadline=None)
@given(tables=chain_tables(), bound=st.integers(min_value=0, max_value=9), analyzed=st.booleans())
def test_every_permutation_of_a_chain_gives_one_multiset(tables, bound, analyzed):
    db, oracle = build(tables, analyzed)
    try:
        filters = f"r.v <= {bound} AND t.x >= {9 - bound}"
        expected = Counter(oracle.execute(chain_sql("rst", filters)).fetchall())
        for order in ORDERS:
            for build_sql in (chain_sql, comma_sql):
                sql = build_sql(order, filters)
                assert Counter(db.execute(sql).rows) == expected, sql
    finally:
        oracle.close()


# -- report_scan's join shapes --------------------------------------------------

JOIN_ROLLUP = (
    "SELECT link.left, COUNT(*), SUM(comp.weight) FROM link "
    "JOIN comp ON link.right = comp.obid WHERE comp.weight >= 48.25 GROUP BY link.left"
)
JOIN_THREE_WAY = (
    "SELECT assy.obid, assy.name, comp.obid FROM assy "
    "JOIN link ON assy.obid = link.left JOIN comp ON link.right = comp.obid "
    "WHERE comp.weight < 0.95 AND assy.weight > 250.5"
)
#: 15 625 × 19 530 pairs filtered afterwards: it did not finish in 100 s
#: while a comma list's equalities were not join keys.
COMMA_JOIN = (
    "SELECT COUNT(*), SUM(comp.weight) FROM link, comp "
    "WHERE link.right = comp.obid AND comp.weight >= 40.0"
)


def timed_rows(db, sql):
    start = time.perf_counter()
    rows = db.execute(sql).rows
    return time.perf_counter() - start, Counter(rows)


@pytest.fixture(scope="module")
def report():
    """The report_scan product (δ=6, κ=5: 3 906 assemblies, 15 625
    components, 19 530 links) with spread-out weights: each statement's
    time and answer under the rule plans, then the database analysed."""
    product = generate_product(TreeParameters(depth=6, branching=5, visibility=0.6), seed=1)
    rng = random.Random(11)
    for component in product.components:
        component.weight = round(rng.uniform(0.05, 50.0), 3)
    for assembly in product.assemblies:
        assembly.weight = round(rng.uniform(1.0, 500.0), 3)
    db = new_pdm_database()
    load_product(db, product)
    rule_runs = {sql: timed_rows(db, sql) for sql in (JOIN_ROLLUP, JOIN_THREE_WAY, COMMA_JOIN)}
    db.execute("ANALYZE")
    return db, rule_runs


def plan_lines(db, sql):
    return [line.strip().split(" (est_rows=")[0] for (line,) in db.execute(f"EXPLAIN {sql}").rows]


class TestReportJoinShapes:
    def test_join_rollup_drives_from_the_filtered_components(self, report):
        """The 3.5 % of components the pushed filter keeps drive the join,
        each probing link through its ``right`` index, instead of every
        link probing comp's primary key.  The WHERE clause's one conjunct
        is the pushed filter's, so no filter above the join tests it
        again."""
        lines = plan_lines(report[0], JOIN_ROLLUP)
        assert lines[1:2] == ["-> Aggregate(1 group key(s), 2 aggregate(s))"]
        assert lines[2].startswith("-> Project(")  # the written column order
        assert lines[3:] == [
            "-> IndexNestedLoopJoin(INNER probe link via link_right_idx)",
            "-> Filter",
            "-> RangeScan(comp by weight)",
        ]

    def test_join_three_way_runs_comp_then_link_then_assy(self, report):
        lines = plan_lines(report[0], JOIN_THREE_WAY)
        assert lines[-4:] == [
            "-> IndexNestedLoopJoin(INNER probe assy via assy_pk)",
            "-> IndexNestedLoopJoin(INNER probe link via link_right_idx)",
            "-> Filter",
            "-> RangeScan(comp by weight)",
        ]
        assert lines[-5].startswith("-> Project(")

    @pytest.mark.parametrize("sql", [JOIN_ROLLUP, JOIN_THREE_WAY, COMMA_JOIN])
    def test_the_costed_plans_keep_the_rule_plans_answers(self, report, sql):
        db, rule_runs = report
        rows = rule_runs[sql][1]
        assert rows and Counter(db.execute(sql).rows) == rows

    def test_a_subquery_side_is_estimated_as_a_key_join(self, report):
        """A derived table has no statistics: the join keeps |L|·|R| /
        max(|L|, |R|) rows, not |L|·|R| × 0.1 — within 10× of the truth."""
        db = report[0]
        sql = (
            "SELECT COUNT(*) FROM link JOIN (SELECT obid, weight FROM comp "
            "WHERE weight >= 48.25) c ON link.right = c.obid"
        )
        join_line = next(
            line for (line,) in db.execute(f"EXPLAIN {sql}").rows if "HashJoin" in line
        )
        estimate = int(join_line.split("est_rows=")[1].rstrip(")"))
        ((actual,),) = db.execute(sql).rows
        assert actual / 10 <= estimate <= actual * 10


class TestCommaJoinIsNotACartesianProduct:
    def test_under_a_second_without_statistics(self, report):
        elapsed, rows = report[1][COMMA_JOIN]
        assert rows and elapsed < 1.0, elapsed

    def test_under_a_second_analysed(self, report):
        db = report[0]
        assert "NestedLoopJoin(CROSS)" not in plan_lines(db, COMMA_JOIN)
        elapsed, rows = timed_rows(db, COMMA_JOIN)
        assert rows == report[1][COMMA_JOIN][1] and elapsed < 1.0, elapsed
