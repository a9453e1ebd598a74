"""stdlib ``sqlite3`` as an independent oracle for the expression compiler.

Every SQL expression is emitted once as Python text and wrapped as a row
function and a batch loop (``repro.sqldb.expressions``), so comparing the
row operators with the batch operators compares one definition with
itself.  This module compares it with SQLite, which shares no code with
it: hypothesis generates well-typed expressions over every node kind the
compiler emits — comparisons, AND / OR / NOT, IS [NOT] NULL, [NOT]
BETWEEN, [NOT] IN lists, LIKE, CASE, COALESCE, NULLIF, ``+ - * %``, ``||``,
unary minus and ``CAST(NULL AS ...)`` — and checks ``SELECT <e> FROM t``
and ``SELECT id FROM t WHERE <e>`` as multisets on two tables: one of one
row (the row loop a one-row batch takes) and one of more than one batch
whose first chunk has NULLs in every column (a prechecked or guarded
column loop refuses it to the row loop) and whose second has none (the
column loop).

Catalogue of intentional divergences (each one neutralised here, none of
them hides a wrong value):

* **Booleans.**  The engine returns ``True`` / ``False``, SQLite ``1`` /
  ``0``; rows are compared with Python equality, under which they agree.
* **Division.**  ``/`` is left out and ``%`` has literal divisors that
  are not zero after truncation: integer division truncates toward
  zero in both and ``%`` takes the dividend's sign in both, but SQLite
  answers NULL for a zero divisor (``5 % 0``, ``5 % 0.5``) where the
  engine raises ``division by zero``.
* **Types.**  Expressions are generated well-typed — numbers with
  numbers, strings with strings — because the engine raises
  ``TypeMismatchError`` where SQLite orders numbers before strings; the
  oracle's columns are typeless, so SQLite applies no affinity.
* **LIKE case.**  SQLite's LIKE ignores ASCII case; strings and patterns
  are lower case.
* **Overflow.**  Integers stay small, so no product leaves int64, past
  which SQLite turns to REAL.

A deterministic test pins the other half of the compiler's contract: a
literal is data, never Python text, and two statements that differ only
in literal values share one generated code object.
"""

import sqlite3
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqldb import Database
from repro.sqldb.columnar import BATCH_SIZE
from repro.sqldb.expressions import Program
from repro.sqldb.parser import parse_statement

STRINGS = ["", "a", "b", "ab", "ba", "abc", "c"]
DOUBLES = [-2.5, -1.0, -0.25, 0.0, 0.5, 1.25, 2.0]

#: Rows of the multi-batch table: NULLs in every column in the first
#: chunk only.
ROWS = BATCH_SIZE + 52


def _big_rows():
    rows = []
    for n in range(ROWS):
        nulls = n < BATCH_SIZE
        rows.append(
            (
                n,
                None if nulls and n % 7 == 3 else n % 41 - 20,
                None if nulls and n % 11 == 5 else DOUBLES[n % len(DOUBLES)],
                None if nulls and n % 5 == 2 else STRINGS[n % len(STRINGS)],
            )
        )
    return rows


TABLES = {"one": [(1, 3, 0.5, "ab")], "big": _big_rows()}


@pytest.fixture(scope="module")
def engines():
    db = Database()
    oracle = sqlite3.connect(":memory:")
    for name, rows in TABLES.items():
        db.execute(f"CREATE TABLE {name} (id INTEGER, i INTEGER, d DOUBLE, s VARCHAR(8))")
        db.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
        oracle.execute(f"CREATE TABLE {name} (id, i, d, s)")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
    yield db, oracle
    oracle.close()


# -- well-typed expressions ----------------------------------------------------

INTEGERS = st.integers(-9, 9).map(str)
FLOATS = st.sampled_from(["0.5", "1.25", "2.0", "3.75"])
TEXTS = st.sampled_from(["'a'", "'ab'", "'b'", "'abc'", "''"])
PATTERNS = st.text(alphabet="abc%_", min_size=1, max_size=3).map(lambda p: f"'{p}'")
COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
#: ``%`` divisors: none is zero once truncated toward zero.
DIVISORS = st.sampled_from(["2", "-3", "7", "1", "1.25", "-2.0", "3.75"])


def _unary(template, part):
    return part.map(template.format)


def _binary(template, left, right):
    return st.tuples(left, right).map(lambda pair: template.format(*pair))


def _case(condition, value):
    return st.tuples(condition, value, value).map(
        lambda parts: "CASE WHEN {} THEN {} ELSE {} END".format(*parts)
    )


def _common(depth, value):
    """CASE, COALESCE and NULLIF over *value* expressions of one type."""
    sub = value(depth - 1)
    return [
        _case(boolean(depth - 1), sub),
        _binary("COALESCE({}, {})", sub, sub),
        _binary("NULLIF({}, {})", sub, sub),
    ]


@lru_cache(maxsize=None)
def number(depth):
    leaves = st.one_of(
        st.sampled_from(["i", "d", "NULL", "CAST(NULL AS INTEGER)"]), INTEGERS, FLOATS
    )
    if depth == 0:
        return leaves
    sub = number(depth - 1)
    arithmetic = st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
        lambda parts: "({} {} {})".format(*parts)
    )
    remainder = _binary("({} % {})", sub, DIVISORS)
    return st.one_of(
        leaves, _unary("(- {})", sub), arithmetic, remainder, *_common(depth, number)
    )


@lru_cache(maxsize=None)
def string(depth):
    leaves = st.one_of(st.sampled_from(["s", "CAST(NULL AS VARCHAR(8))"]), TEXTS)
    if depth == 0:
        return leaves
    sub = string(depth - 1)
    return st.one_of(leaves, _binary("({} || {})", sub, sub), *_common(depth, string))


def _comparison(value):
    return st.tuples(value, COMPARISONS, value).map(lambda parts: "({} {} {})".format(*parts))


def _membership(value):
    keyword = st.sampled_from(["IN", "NOT IN"])
    items = st.lists(st.one_of(value, st.just("NULL")), min_size=1, max_size=4)
    return st.tuples(value, keyword, items).map(
        lambda parts: f"({parts[0]} {parts[1]} ({', '.join(parts[2])}))"
    )


@lru_cache(maxsize=None)
def boolean(depth):
    num, text = number(max(depth - 1, 0)), string(max(depth - 1, 0))
    leaves = st.one_of(
        _comparison(num),
        _comparison(text),
        _unary("({} IS NULL)", num),
        _unary("({} IS NOT NULL)", text),
        st.tuples(num, st.sampled_from(["BETWEEN", "NOT BETWEEN"]), num, num).map(
            lambda parts: "({} {} {} AND {})".format(*parts)
        ),
        _membership(num),
        _membership(text),
        st.tuples(text, st.sampled_from(["LIKE", "NOT LIKE"]), PATTERNS).map(
            lambda parts: "({} {} {})".format(*parts)
        ),
    )
    if depth == 0:
        return leaves
    sub = boolean(depth - 1)
    return st.one_of(
        leaves,
        _binary("({} AND {})", sub, sub),
        _binary("({} OR {})", sub, sub),
        _unary("(NOT {})", sub),
    )


def _assert_same(engines, sql):
    db, oracle = engines
    ours = Counter(db.execute(sql).rows)
    theirs = Counter(oracle.execute(sql).fetchall())
    assert ours == theirs, sql


ORACLE_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@ORACLE_SETTINGS
@given(predicate=boolean(3), table=st.sampled_from(sorted(TABLES)))
def test_predicates_match_sqlite(engines, predicate, table):
    _assert_same(engines, f"SELECT id FROM {table} WHERE {predicate}")
    _assert_same(engines, f"SELECT id, {predicate} FROM {table}")


@ORACLE_SETTINGS
@given(
    value=st.one_of(number(3), string(3)),
    table=st.sampled_from(sorted(TABLES)),
)
def test_values_match_sqlite(engines, value, table):
    _assert_same(engines, f"SELECT id, {value} FROM {table}")


# -- literals are data ---------------------------------------------------------


def _programs(operator):
    """The generated programs of a plan, depth-first."""
    for value in vars(operator).values():
        if isinstance(value, Program):
            yield value
    for child in operator.children:
        yield from _programs(child)


def _plan_programs(db, sql):
    return list(_programs(db.plan_statement(parse_statement(sql)).root))


def test_a_literal_is_data_not_code(engines):
    db, __ = engines
    hostile = "'x'') or __import__(''os'') or ('''"
    sql = f"SELECT id, s || {hostile} FROM big WHERE s = {hostile} OR i IN (99, {hostile})"
    assert db.execute(sql).rows == []
    programs = _plan_programs(db, sql)
    assert programs
    for generated in programs:
        assert "__import__" not in generated.source
        assert "'x" not in generated.source
    assert db.execute("SELECT COUNT(*) FROM big").scalar() == ROWS


def test_statements_differing_only_in_literals_share_code(engines):
    db, __ = engines
    first = _plan_programs(db, "SELECT i * 2 FROM big WHERE d >= 0.5 AND s = 'ab'")
    second = _plan_programs(db, "SELECT i * 7 FROM big WHERE d >= 1.25 AND s = 'zz'")
    # The pipeline's loop, held by both its stages; the range scan reads
    # its literal bound without a generated function.
    assert len(first) == len(second) == 2
    for a, b in zip(first, second):
        assert a.source == b.source
        assert a.row.__code__ is b.row.__code__


# -- long operator chains --------------------------------------------------------

#: 300-term left-deep chains: each cycles through its terms.  The product
#: runs over doubles after one integer, so it stays a float in both
#: engines, multiplied in the same order.
CHAINS = {
    "+": ["i", "d", "1", "i", "0.5"],
    "*": ["i"] + ["d"] * 4,
    "||": ["s", "'x'", "s", "'ab'"],
}


def _chain(operator, terms, length=300):
    return f" {operator} ".join(terms[n % len(terms)] for n in range(length))


class TestLongChains:
    """A left-deep chain of one operator longer than Python's parser can
    nest is emitted as one flat tuple of steps, each bound to a name in
    turn, and evaluated in the nested order."""

    @pytest.mark.parametrize("operator", sorted(CHAINS))
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_a_300_term_chain_matches_sqlite(self, engines, operator, table):
        chain = _chain(operator, CHAINS[operator])
        _assert_same(engines, f"SELECT id, {chain} FROM {table}")
        _assert_same(engines, f"SELECT id FROM {table} WHERE {chain} IS NULL")

    @pytest.mark.parametrize("length", [3, 300])
    def test_a_step_fails_or_propagates_null_where_the_nested_form_does(self, length):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER, s VARCHAR(4), n INTEGER)")
        db.execute("INSERT INTO t VALUES (2, 'x', NULL)")
        tail = " + x" * (length - 3)
        with pytest.raises(TypeMismatchError):
            db.execute(f"SELECT x + s + n{tail} FROM t")
        assert db.execute(f"SELECT n + s + x{tail} FROM t").scalar() is None
        assert db.execute(f"SELECT s + n + x{tail} FROM t").scalar() is None


class TestRemainderFollowsSQL:
    """``%`` truncates both operands toward zero and gives the remainder
    the dividend's sign, REAL when either operand is (as SQLite does);
    Python's ``%`` follows the divisor's sign instead."""

    @pytest.mark.parametrize(
        "expression, expected",
        [("-3 % 2", -1), ("-3.5 % 2", -1.0), ("7 % 2.5", 1.0)],
    )
    def test_the_reproductions_agree_with_sqlite(self, engines, expression, expected):
        db, oracle = engines
        ours = db.execute(f"SELECT {expression}").scalar()
        assert ours == expected == oracle.execute(f"SELECT {expression}").fetchone()[0]
        assert type(ours) is type(expected)

    @pytest.mark.parametrize("divisor", ["0", "0.5", "-0.25"])
    def test_a_divisor_truncating_to_zero_is_a_division_by_zero(self, engines, divisor):
        db, __ = engines
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute(f"SELECT 5 % {divisor}")
