"""Error quality: wrong SQL must fail with actionable messages, and the
failure must name the offending object."""

import pytest

from repro.errors import (
    CatalogError,
    ExecutionError,
    LexerError,
    ParseError,
    SQLError,
    TypeMismatchError,
)
from repro.sqldb import Database
from repro.sqldb.columnar import SMALL_BATCH


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE a (id INTEGER, x INTEGER)")
    db.execute("CREATE TABLE b (id INTEGER, x INTEGER)")
    return db


class TestNameResolution:
    def test_unknown_table_names_the_table(self, db):
        with pytest.raises(CatalogError, match="ghost"):
            db.execute("SELECT * FROM ghost")

    def test_unknown_column_names_the_column(self, db):
        with pytest.raises(SQLError, match="nope"):
            db.execute("SELECT nope FROM a")

    def test_unknown_alias_named(self, db):
        with pytest.raises(SQLError, match="z"):
            db.execute("SELECT z.id FROM a")

    def test_ambiguous_column_named(self, db):
        with pytest.raises(CatalogError, match="ambiguous.*x"):
            db.execute("SELECT x FROM a JOIN b ON a.id = b.id")

    def test_qualified_reference_disambiguates(self, db):
        db.execute("INSERT INTO a VALUES (1, 10)")
        db.execute("INSERT INTO b VALUES (1, 20)")
        assert db.execute(
            "SELECT b.x FROM a JOIN b ON a.id = b.id"
        ).scalar() == 20

    def test_unknown_function_named(self, db):
        db.execute("INSERT INTO a VALUES (1, 10)")
        with pytest.raises(ExecutionError, match="(?i)frobnicate"):
            db.execute("SELECT frobnicate(id) FROM a")


class TestSyntaxErrors:
    def test_misspelled_keyword(self, db):
        with pytest.raises(ParseError):
            db.execute("SELEKT * FROM a")

    def test_dangling_operator(self, db):
        with pytest.raises(ParseError):
            db.execute("SELECT id + FROM a")

    def test_unbalanced_parenthesis(self, db):
        with pytest.raises(ParseError):
            db.execute("SELECT (id FROM a")

    def test_unterminated_string_reports_offset(self, db):
        with pytest.raises(LexerError) as excinfo:
            db.execute("SELECT 'oops FROM a")
        assert excinfo.value.position == 7

    def test_error_message_mentions_found_token(self, db):
        with pytest.raises(ParseError, match="WHERE"):
            db.execute("SELECT * FROM WHERE id = 1")


class TestRuntimeErrors:
    def test_too_few_parameters(self, db):
        db.execute("INSERT INTO a VALUES (1, 10)")
        with pytest.raises(ExecutionError, match="position 1"):
            db.execute("SELECT * FROM a WHERE id = ? AND x = ?", [1])

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SQLError):
            db.execute("SELECT id FROM a WHERE COUNT(*) > 1")

    def test_insert_arity_mismatch_named(self, db):
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError, match="2"):
            db.execute("INSERT INTO a VALUES (1)")

    def test_cross_type_comparison_rejected(self, db):
        from repro.errors import TypeMismatchError

        db.execute("INSERT INTO a VALUES (1, 1)")
        with pytest.raises(TypeMismatchError):
            db.execute("SELECT * FROM a WHERE id = 'one'")

    def test_exceptions_are_sqlerror_subclasses(self):
        for error_type in (CatalogError, ParseError, LexerError, ExecutionError):
            assert issubclass(error_type, SQLError)


class TestUnaryMinusOnANonNumber:
    """``-x`` checks that x is a number, as ``x + 1`` does, on a one-row
    table (the row function), on a small batch (the row function per row)
    and on a batch with columns (the batch loop)."""

    QUERIES = (
        "SELECT -s FROM t",
        "SELECT a FROM t WHERE -s = 1",
        "SELECT -(a || 'z') FROM t",
    )

    @pytest.mark.parametrize("rows", [1, 5, SMALL_BATCH + 1])
    @pytest.mark.parametrize("sql", QUERIES)
    def test_is_a_type_mismatch(self, sql, rows):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, s VARCHAR(8))")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(i, f"v{i}") for i in range(rows)])
        with pytest.raises(TypeMismatchError, match="non-numeric"):
            db.execute(sql)


class TestExpressionDepth:
    """An expression is compiled to one Python expression, so its nesting
    is bounded by Python's parser: past it, a typed error at plan time.
    A long left-deep chain of one kind of operator is not nested: its
    steps are bound to names in turn (``_Emitter.chain``)."""

    def test_deep_sums_run_until_the_limit_then_fail_typed(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT a" + " + a" * 80 + " FROM t").scalar() == 81
        assert db.execute("SELECT a" + " + a" * 400 + " FROM t").scalar() == 401
        nested = "SELECT " + "a + (" * 100 + "a" + ")" * 100 + " FROM t"
        with pytest.raises(ExecutionError, match="too deeply nested"):
            db.execute(nested)

    def test_long_case_and_coalesce_chains_are_flat(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
        branches = " ".join(f"WHEN a = {i} THEN {i * 10}" for i in range(300))
        assert db.execute(f"SELECT CASE {branches} END FROM t").scalar() == 70
        nulls = ", ".join(["NULL"] * 300)
        assert db.execute(f"SELECT COALESCE({nulls}, a) FROM t").scalar() == 7
