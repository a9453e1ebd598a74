"""Deep SQL fails typed: one nesting limit for the parser and the lowering.

An expression nests one level per parenthesis, function call, CAST,
subquery, NOT and sign (``repro.sqldb.ast_nodes.NESTING_LIMIT``).  The
parser counts the levels on the way down and :func:`repro.sqldb.
expressions.lower` counts them again for the trees it is handed; past the
limit either raises a ``ParseError`` that names it, long before Python's
recursion limit.  A left-deep run of one binary operator is not nesting:
it is parsed and lowered in a loop, and one too long for the compiler
is a typed ``ExecutionError`` (``test_error_messages.py`` holds the
lengths that compile).  Each input below raised a bare ``RecursionError``
before.
"""

import pytest

from repro.errors import ParseError, SQLError
from repro.sqldb import Database
from repro.sqldb.ast_nodes import NESTING_LIMIT, UnaryOp
from repro.sqldb.expressions import CompileContext, Frame, Scope, lower
from repro.sqldb.parser import parse_expression


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER)")
    database.execute("INSERT INTO t VALUES (1)")
    return database


def named_limit():
    return pytest.raises(ParseError, match=f"more than {NESTING_LIMIT} levels")


def test_a_150_deep_parenthesised_sum(db):
    with named_limit():
        db.execute("SELECT " + "(" * 150 + "a + 1" + ")" * 150 + " FROM t")


def test_120_nested_function_calls(db):
    with named_limit():
        db.execute("SELECT " + "ABS(" * 120 + "a" + ")" * 120 + " FROM t")


def test_a_2000_term_sum(db):
    with pytest.raises(SQLError):
        db.execute("SELECT " + " + ".join(["a"] * 2000) + " FROM t")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a FROM t WHERE " + "NOT " * 150 + "a = 1",
        "SELECT " + "- " * 150 + "a FROM t",
        "SELECT " + "(SELECT " * 80 + "a" + " FROM t)" * 80 + " FROM t",
        "SELECT " + "CAST(" * 80 + "a" + " AS INTEGER)" * 80 + " FROM t",
    ],
    ids=["not", "sign", "subquery", "cast"],
)
def test_every_kind_of_level_counts(db, sql):
    with named_limit():
        db.execute(sql)


def test_nesting_up_to_the_limit_parses(db):
    assert db.execute("SELECT " + "(" * NESTING_LIMIT + "a + 1" + ")" * NESTING_LIMIT + " FROM t").scalar() == 2


def test_lower_counts_the_levels_of_a_tree_it_is_handed():
    deep = parse_expression("a + 1")
    for __ in range(NESTING_LIMIT + 1):
        deep = UnaryOp("-", deep)
    ctx = CompileContext([Frame(Scope([("t", ["a"])]))], None, None)
    with named_limit():
        lower(deep, ctx)
