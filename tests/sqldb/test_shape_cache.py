"""The plan cache keyed by statement shape.

A SELECT that misses the exact-text cache is lexed once; texts whose
tokens differ only in their numeral and string literals share a *shape*
(:func:`repro.sqldb.parser.statement_shape`) and so a plan, which reads
those literals as hidden parameters.  A shape keeps a literal's value in
the key where the plan reads it (``LIMIT``, a ``GROUP BY`` / ``ORDER BY``
item, a sign, a ``LIKE`` pattern), keeps which literals are equal, and is
reused only where the estimates its plan was chosen under fall in the
same log₂ buckets.  These tests hold a shared plan to what a fresh plan of the
text gives: the same rows or error (and SQLite's rows), and the same
plan, estimates and numerals aside.
"""

import re
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import perfbench.stack as perfbench_stack
from perfbench import workloads
from repro.analysis.templates import template_queries
from repro.errors import CatalogError, SQLError
from repro.model.parameters import TreeParameters
from repro.pdm.generator import generate_product
from repro.pdm.schema import load_product, new_pdm_database
from repro.sqldb import Database
from repro.sqldb.explain import explain_plan
from repro.sqldb.lexer import _TOKEN, tokenize
from repro.sqldb.parser import parse_statement, statement_shape
from repro.sqldb.tokens import TokenKind
from tests.sqldb.test_sqlite_oracle import ENGINE_CORPUS

T_ROWS = [
    (i, i % 37 - 18, None if i % 5 == 0 else f"s{i % 11}", (i * 7) % 101 * 0.5)
    for i in range(240)
]


def make_db(analyze=True, rows=T_ROWS):
    """``t (id, a INTEGER indexed, s VARCHAR, w DOUBLE)``, 240 rows."""
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s VARCHAR(8), w DOUBLE)")
    db.execute("CREATE INDEX t_a ON t (a)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    if analyze:
        db.execute("ANALYZE")
    return db


def outcome(db, sql, params=()):
    """The rows of *sql* as a multiset, or the type and text of its error."""
    try:
        return Counter(db.execute(sql, list(params)).rows)
    except SQLError as error:
        return type(error), str(error)


def served(db, sql):
    """The plan the cache serves *sql* (planning it when nothing serves)."""
    return db._shaped(sql, tokenize(sql), None)


def masked(lines):
    """Plan text with numerals and quoted strings masked (estimates, key
    counts, literals)."""
    return [re.sub(r"'(?:[^']|'')*'|\d+(?:\.\d+)?(?:e[-+]?\d+)?", "#", line) for line in lines]


def fresh(db, sql):
    return explain_plan(db.plan_statement(parse_statement(sql)))


def sibling(sql):
    """*sql* with each numeral the plan does not read changed: the same
    shape, other literals."""
    literals = []
    parse_statement(sql, hidden=literals)
    hidden = {literal.hidden for literal in literals if literal.hidden is not None}
    pieces, end = [], 0
    tokens = [t for t in tokenize(sql) if t.kind in (TokenKind.NUMBER, TokenKind.STRING)]
    for ordinal, token in enumerate(tokens):
        if token.kind is TokenKind.NUMBER and ordinal in hidden:
            stop = _TOKEN.match(sql, token.position).end()
            value = token.value + 1 if isinstance(token.value, int) else token.value * 1.01
            pieces += [sql[end : token.position], repr(value)]
            end = stop
    return "".join(pieces) + sql[end:]


# -- literals of every kind ---------------------------------------------------

#: A literal of each kind as SQL text: integers (int64 edges and
#: negatives, which are signed), reals, strings with quotes, and NULL.
INTEGERS = st.one_of(
    st.integers(-20, 20), st.sampled_from([-(2**63), 2**63 - 1, -(2**63) + 1])
).map(str)
REALS = st.floats(-30, 60, allow_nan=False, allow_infinity=False).map(repr)
STRINGS = st.text(alphabet="s1'x", max_size=3).map(lambda s: "'" + s.replace("'", "''") + "'")
KINDS = {"integer": INTEGERS, "real": REALS, "string": STRINGS, "null": st.just("NULL")}

TEMPLATE = (
    "SELECT id, a, s FROM t WHERE a >= {0} AND w < {1} AND (s = {2} OR s IS NULL) "
    "AND a IN ({3}, {0}, -3)"
)


class TestSharedPlanDifferential:
    """Texts of one shape, run in turn on one database, answer as a fresh
    database and SQLite do."""

    @pytest.fixture(scope="class")
    def oracle(self):
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (id, a, s, w)")
        connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", T_ROWS)
        yield connection
        connection.close()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=4, max_size=4))
    def test_each_text_answers_as_a_fresh_plan_and_sqlite(self, oracle, data, kinds):
        shared = make_db()
        for __ in range(4):
            sql = TEMPLATE.format(*[data.draw(KINDS[kind]) for kind in kinds])
            got = outcome(shared, sql)
            assert got == outcome(make_db(), sql), sql
            if isinstance(got, Counter):
                assert got == Counter(oracle.execute(sql).fetchall()), sql


class TestShapeKey:
    def key(self, sql):
        return statement_shape(tokenize(sql))[0]

    def test_an_integer_a_real_and_a_string_are_other_shapes(self):
        keys = {self.key(f"SELECT id FROM t WHERE a = {v}") for v in ("1", "1.0", "'1'")}
        assert len(keys) == 3

    def test_literals_that_differ_share_a_shape(self):
        assert self.key("SELECT id FROM t WHERE a = 1") == self.key("select id  FROM t WHERE a = 2")

    def test_equal_literals_stay_equal(self):
        # IN (1, 1) probes one key; GROUP BY x + 1 matches the select list's x + 1.
        assert self.key("SELECT id FROM t WHERE a IN (1, 1)") != self.key(
            "SELECT id FROM t WHERE a IN (1, 2)"
        )
        assert self.key("SELECT s FROM t WHERE s IN ('A', 'a')") != self.key(
            "SELECT s FROM t WHERE s IN ('A', 'b')"
        )

    def test_null_is_part_of_the_key(self):
        assert self.key("SELECT id FROM t WHERE a = NULL") != self.key("SELECT id FROM t WHERE a = 1")


class TestOwnPlans:
    """Texts whose literals the plan reads get a plan each."""

    @pytest.fixture
    def db(self):
        return make_db()

    @pytest.mark.parametrize(
        "first, second",
        [
            ("SELECT id FROM t WHERE w > 3.5 ORDER BY id LIMIT 5", "SELECT id FROM t WHERE w > 3.5 ORDER BY id LIMIT 6"),
            ("SELECT id, a FROM t WHERE w > 3.5 ORDER BY 1", "SELECT id, a FROM t WHERE w > 3.5 ORDER BY 2"),
            ("SELECT id FROM t WHERE a IN (1, 2)", "SELECT id FROM t WHERE a IN (1, 2, 3)"),
            ("SELECT id FROM t WHERE a IN (1, 1)", "SELECT id FROM t WHERE a IN (1, 2)"),
            ("SELECT id FROM t WHERE a > -3", "SELECT id FROM t WHERE a > -4"),
            ("SELECT a + 1, COUNT(*) FROM t GROUP BY a + 1", "SELECT a + 1, COUNT(*) FROM t GROUP BY a + 2"),
        ],
    )
    def test_a_read_literal_gets_its_own_plan(self, db, first, second):
        assert outcome(db, second) == outcome(make_db(), second)
        assert outcome(db, first) == outcome(make_db(), first)
        assert outcome(db, second) == outcome(make_db(), second)
        if isinstance(outcome(db, second), Counter):
            assert served(db, first).root is not served(db, second).root

    def test_a_literal_the_plan_does_not_read_shares_it(self, db):
        first, second = "SELECT id FROM t WHERE w > 3.5 AND s = 's1'", "SELECT id FROM t WHERE w > 4.5 AND s = 's2'"
        db.execute(first)
        hits = db.statistics["plan_cache_hits"]
        assert outcome(db, second) == outcome(make_db(), second)
        assert db.statistics["plan_cache_hits"] == hits + 1
        assert served(db, first).root is served(db, second).root

    def test_literals_that_pick_other_plans_get_both(self, db):
        # Two range conjuncts: the scan reads the copy of the column the
        # estimate keeps fewest rows of.
        by_a, by_w = "SELECT id FROM t WHERE a < -17 AND w < 49.5", "SELECT id FROM t WHERE a < 17 AND w < 0.5"
        assert any("RangeScan(t by a)" in line for line in fresh(db, by_a))
        assert any("RangeScan(t by w)" in line for line in fresh(db, by_w))
        for sql in (by_a, by_w, by_a, by_w):
            assert outcome(db, sql) == outcome(make_db(), sql)
        for sql in (by_a, by_w):
            assert explain_plan(served(db, sql)) == fresh(db, sql)
        assert served(db, by_a).root is not served(db, by_w).root

    def test_a_short_or_long_parameter_list_fails_as_before(self, db):
        first, second = "SELECT id FROM t WHERE a = ? AND w < 3.5", "SELECT id FROM t WHERE a = ? AND w < 4.5"
        for sql in (first, second, first, second):
            for params in ((), (1, 2)):
                assert outcome(db, sql, params) == outcome(make_db(), sql, params)
        assert "?-parameter at position 0 but only 0 values" in outcome(db, second, ())[1]


class TestInvalidation:
    """A shape hit after a catalog or statistics change plans afresh."""

    FIRST, SECOND = "SELECT id, s FROM t WHERE a = 3 AND w < 40.5", "SELECT id, s FROM t WHERE a = 4 AND w < 41.5"

    def shared_db(self):
        db = make_db(analyze=False)
        db.execute(self.FIRST)
        return db

    def test_analyze_replans(self):
        db = self.shared_db()
        before = served(db, self.FIRST)
        db.execute("ANALYZE")
        hits = db.statistics["plan_cache_hits"]
        assert outcome(db, self.SECOND) == outcome(make_db(), self.SECOND)
        assert db.statistics["plan_cache_hits"] == hits
        assert served(db, self.SECOND).root is not before.root

    def test_create_index_replans(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s VARCHAR(8), w DOUBLE)")
        db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", T_ROWS)
        db.execute(self.FIRST)
        assert not any("IndexLookup" in line for line in explain_plan(served(db, self.SECOND)))
        db.execute("CREATE INDEX t_a ON t (a)")
        assert outcome(db, self.SECOND) == outcome(make_db(), self.SECOND)
        assert any("IndexLookup(t via t_a)" in line for line in explain_plan(served(db, self.SECOND)))

    def test_drop_table_replans(self):
        db = self.shared_db()
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.execute(self.SECOND)


# -- the served plan is the fresh plan -----------------------------------------


def assert_served_as_fresh(db, texts):
    """Every text, and a sibling of it, is served the plan a fresh plan
    of it is, numerals and estimates masked."""
    for sql in texts:
        for text in (sql, sibling(sql)):
            assert masked(explain_plan(served(db, text))) == masked(fresh(db, text)), text


@pytest.fixture(scope="module")
def report_stack():
    return perfbench_stack.build_stack("report_scan", 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_report_texts_are_served_their_fresh_plan(report_stack, seed):
    """A pass of ``report_scan`` (which starts with ``ANALYZE``) plans once
    per family, but for a text whose estimates fall in another bucket."""
    db = report_stack.database
    texts = [op.target for op in workloads.report_ops(workloads.GroundTruth.of(report_stack.product), seed)]
    db.execute("ANALYZE")
    before = db.statistics["plan_cache_hits"]
    for sql in texts:
        assert masked(explain_plan(served(db, sql))) == masked(fresh(db, sql)), sql
    assert db.statistics["plan_cache_hits"] - before >= 0.95 * len(texts)


@pytest.mark.parametrize("analyzed", [False, True], ids=["rules", "stats"])
def test_template_queries_are_served_their_fresh_plan(analyzed):
    db = new_pdm_database()
    load_product(db, generate_product(TreeParameters(depth=4, branching=3, visibility=0.6), seed=4))
    if analyzed:
        db.execute("ANALYZE")
    assert_served_as_fresh(db, [sql for __, sql in template_queries() if sql.startswith(("SELECT", "WITH"))])


@pytest.mark.parametrize("analyzed", [False, True], ids=["rules", "stats"])
def test_engine_corpus_is_served_its_fresh_plan(analyzed):
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, v INTEGER, n INTEGER, s VARCHAR(20))"
    )
    db.execute("CREATE TABLE dim (k INTEGER, label VARCHAR(20))")
    db.execute("CREATE TABLE empty (k INTEGER)")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
        [(i, i * 3, (i * 7) % 1000, i % 50, None if i % 3 == 0 else i % 11, f"name-{i}") for i in range(500)],
    )
    db.executemany("INSERT INTO dim VALUES (?, ?)", [(k, f"label-{k}") for k in range(0, 50, 2)])
    if analyzed:
        db.execute("ANALYZE")
    assert_served_as_fresh(db, ENGINE_CORPUS)
