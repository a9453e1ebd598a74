"""stdlib ``sqlite3`` as the engine's reference.

Every SELECT of the PDM template corpus — the seven recursive ones (their
outer link block is ``link.left IN (SELECT obid FROM rtbl) AND
link.right IN (...)``, the access path the ``IN (subquery)`` probe
changed) and the sixteen navigational and batched ones — the
engine-level corpus below (one statement per operator and expression
shape), and the ``IN`` / ``NOT IN (subquery)`` NULL matrix on indexed and
unindexed columns must return the same multiset of rows from this engine
and from SQLite, which shares no code with it; an engine-corpus
statement whose ``ORDER BY`` orders every row must return the same list.
The statement text runs on SQLite verbatim, but for the one grammar gap
and the NULL placement below.

Catalogue of intentional divergences (each one neutralised here, none of
them hides a wrong row):

* **Booleans.**  The engine has a BOOLEAN type and returns ``True`` /
  ``False``; SQLite returns ``1`` / ``0``.  Rows are compared with Python
  equality, under which ``False == 0`` (and the hashes agree).
* **Row order.**  Without ``ORDER BY`` both engines may return rows in any
  order, and with it ties are unordered — results are compared as
  multisets (``collections.Counter``), and as lists only where the
  ``ORDER BY`` leaves no tie between different rows (``TOTAL_ORDER``).
* **NULL placement.**  NULLs sort last ascending here and first in
  SQLite.  SQLite's text of an engine-corpus statement gets ``NULLS
  LAST`` appended to each ascending ``ORDER BY`` key and ``NULLS FIRST``
  to each descending one, so ``ORDER BY n`` over a nullable ``n`` is
  compared as a list.
* **Type affinity.**  An SQLite column declared INTEGER converts the text
  ``'1'`` to ``1``; this engine never coerces for comparison: a string
  compared with a number is a ``TypeMismatchError``, in a filter and as a
  join key alike, whichever join plans it
  (``test_join_graph.py::TestAKeyOfTheOtherKind``).  The oracle's tables
  are declared without types, so SQLite stores and compares the values
  the loader hands it, like the engine does.
* **Stored functions.**  ``options_overlap`` / ``is_effective`` are not SQL:
  SQLite gets the engine's own Python implementations through
  ``create_function`` (NULL-propagating, like ``register_function``), so a
  difference can only come from planning and execution, not from them.
* **Errors.**  SQLite answers NULL for ``x / 0`` and compares a number
  with a string; this engine raises.  No statement compared here
  evaluates either; ``test_differential.py`` pins the errors, and that a
  ``LIMIT`` stops evaluation where the rows it returns end (DESIGN §10).
* **Text in SUM and AVG.**  It raises ``TypeMismatchError`` here, as
  ``s + 1`` does; SQLite reads it as 0.  No statement compared here sums
  text.  Otherwise both fold from integer 0, so a BOOLEAN sums to an
  integer and ``-0.0`` to ``0.0`` in both
  (``test_functions.py::TestSumAndAvgFoldFromIntegerZero``).
* **OFFSET without LIMIT.**  The engine accepts ``SELECT ... OFFSET n``;
  SQLite's grammar wants a ``LIMIT`` first and rejects the text.  The two
  such statements of the engine corpus (``NO_SQLITE_GRAMMAR``) run on
  SQLite with ``LIMIT -1`` (no limit) before the ``OFFSET``.
* **IN over a list of mixed kinds.**  Not a divergence: both engines
  test membership, so ``2 IN (1, 'x')`` is FALSE in both, while ``2 =
  'x'`` is a ``TypeMismatchError`` here and FALSE in SQLite.  Only the
  ``IN`` forms are compared.
* **Recursion without a fixpoint.**  A recursive branch that references
  its CTE twice, aggregates, or tests it under ``NOT IN``, and EXCEPT
  between branches, are refused by both engines (``ParseError`` here,
  ``OperationalError`` there), not compared; the linear closure over the
  same chain is compared.
"""

import re
import sqlite3
from collections import Counter

import pytest

from repro.analysis.templates import template_queries
from repro.errors import ParseError
from repro.model.parameters import TreeParameters
from repro.pdm.generator import generate_product
from repro.pdm.schema import CLIENT_FUNCTIONS, load_product, new_pdm_database
from repro.sqldb import Database
from tests.sqldb.test_recursive import LINEAR_CLOSURE, NO_FIXPOINT

RECURSIVE_TEMPLATES = [
    (name, sql)
    for name, sql in template_queries()
    if sql.startswith("WITH RECURSIVE")
]

#: The other SELECTs of the corpus: navigational, batched, where-used.
FLAT_TEMPLATES = [
    (name, sql)
    for name, sql in template_queries()
    if sql.startswith("SELECT")
]


def parameter_count(sql: str) -> int:
    """``?`` placeholders outside string literals."""
    return re.sub(r"'[^']*'", "", sql).count("?")


# ---------------------------------------------------------------------------
# Engine-level corpus: one seeded table pair, every operator and expression
# shape.
# ---------------------------------------------------------------------------

ENGINE_CORPUS = [
    # scans / filters / three-valued logic
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE v < 40",
    "SELECT id FROM t WHERE v < 40 AND b < 500",
    "SELECT id FROM t WHERE v < 10 OR b > 900",
    "SELECT id FROM t WHERE NOT (v < 40)",
    "SELECT id FROM t WHERE n IS NULL",
    "SELECT id FROM t WHERE n IS NOT NULL",
    "SELECT id FROM t WHERE n > 5",
    "SELECT id FROM t WHERE n > 5 OR v < 3",
    "SELECT id FROM t WHERE v BETWEEN 10 AND 20",
    "SELECT id FROM t WHERE v IN (1, 2, 3, NULL)",
    "SELECT id FROM t WHERE s LIKE 'name-1%'",
    "SELECT id FROM t WHERE s LIKE '%7'",
    # projections / expressions
    "SELECT a + b, v * 2 FROM t WHERE v >= 5",
    "SELECT a - b, -v FROM t",
    "SELECT s || '-x' FROM t WHERE v < 5",
    "SELECT CAST(v AS VARCHAR(10)) FROM t WHERE v < 5",
    "SELECT CASE WHEN v < 10 THEN 'lo' ELSE 'hi' END FROM t",
    "SELECT n + 1 FROM t",
    # joins (dim.k is NOT indexed, so the planner hash-joins)
    "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k",
    "SELECT t.id, dim.label FROM t LEFT JOIN dim ON t.v = dim.k",
    "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k WHERE dim.k < 20",
    "SELECT t.id FROM t JOIN dim ON t.n = dim.k",  # NULL join keys never match
    # aggregation
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(n), SUM(n), MIN(n), MAX(n), AVG(n) FROM t",
    "SELECT v, COUNT(*), SUM(a) FROM t GROUP BY v",
    "SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) > 3",
    "SELECT COUNT(DISTINCT n), SUM(DISTINCT n), AVG(n) FROM t",
    "SELECT v, COUNT(DISTINCT n), SUM(DISTINCT n), AVG(n) FROM t GROUP BY v",
    "SELECT COUNT(*) FROM empty",
    "SELECT SUM(k) FROM empty",
    # sort / distinct / limit / offset / set ops
    "SELECT v FROM t ORDER BY v DESC, id ASC",
    "SELECT n FROM t ORDER BY n",
    "SELECT id, n FROM t ORDER BY n DESC, id",
    "SELECT n, v FROM t ORDER BY n, v DESC LIMIT 60 OFFSET 100",
    "SELECT DISTINCT v FROM t",
    "SELECT DISTINCT n FROM t WHERE v < 10",
    "SELECT id FROM t ORDER BY id LIMIT 7",
    "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 95",
    # a negative OFFSET skips nothing (it once re-emitted the batch's tail)
    "SELECT id FROM t OFFSET -1",
    "SELECT id FROM t OFFSET ?",
    "SELECT id FROM t LIMIT 2 OFFSET -1",
    "SELECT v FROM t WHERE v < 3 UNION ALL SELECT k FROM dim WHERE k < 3",
    # a scalar subquery has no kernel: its row function runs per row
    "SELECT v, (SELECT MAX(k) FROM dim) FROM t WHERE v < 3",
    "SELECT v FROM t WHERE id = 4",  # primary-key index lookup
    # a derived table and a CTE
    "SELECT x.id FROM (SELECT id FROM t WHERE v < 5) AS x",
    "WITH small AS (SELECT id, v FROM t WHERE v < 5) SELECT * FROM small",
]

#: Parameters of the corpus queries that take any.
CORPUS_PARAMS = {"SELECT id FROM t OFFSET ?": (-2,)}

#: Engine-corpus statements SQLite cannot parse (see the catalogue).
NO_SQLITE_GRAMMAR = {"SELECT id FROM t OFFSET -1", "SELECT id FROM t OFFSET ?"}

#: Engine-corpus statements whose ``ORDER BY`` leaves no tie between
#: different rows: compared as lists.
TOTAL_ORDER = {
    "SELECT v FROM t ORDER BY v DESC, id ASC",
    "SELECT n FROM t ORDER BY n",
    "SELECT id, n FROM t ORDER BY n DESC, id",
    "SELECT n, v FROM t ORDER BY n, v DESC LIMIT 60 OFFSET 100",
    "SELECT id FROM t ORDER BY id LIMIT 7",
    "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 95",
}


def sqlite_text(sql: str) -> str:
    """*sql* as SQLite parses it, with this engine's NULL placement:
    ``LIMIT -1`` before a lone ``OFFSET``, and ``NULLS LAST`` / ``NULLS
    FIRST`` after each ascending / descending ``ORDER BY`` key."""
    if sql in NO_SQLITE_GRAMMAR:
        sql = sql.replace(" OFFSET ", " LIMIT -1 OFFSET ")
    head, order_by, tail = sql.partition(" ORDER BY ")
    if not order_by:
        return sql
    keys, cut = re.fullmatch(r"(.*?)((?: LIMIT .*| OFFSET .*)?)", tail).groups()
    placed = [
        key + (" NULLS FIRST" if key.endswith(" DESC") else " NULLS LAST")
        for key in keys.split(", ")
    ]
    return head + order_by + ", ".join(placed) + cut


@pytest.fixture(scope="module")
def engine_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER,"
        " v INTEGER, n INTEGER, s VARCHAR(20))"
    )
    db.execute("CREATE TABLE dim (k INTEGER, label VARCHAR(20))")
    db.execute("CREATE TABLE empty (k INTEGER)")
    rows = [
        (i, i * 3, (i * 7) % 1000, i % 50, None if i % 3 == 0 else i % 11, f"name-{i}")
        for i in range(500)
    ]
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", rows)
    db.executemany(
        "INSERT INTO dim VALUES (?, ?)", [(k, f"label-{k}") for k in range(0, 50, 2)]
    )
    return db


@pytest.fixture(scope="module")
def engine_oracle(engine_db):
    """SQLite holding ``engine_db``'s tables."""
    connection = sqlite_twin(
        {
            name: (
                engine_db.catalog.lookup(name).schema.column_names,
                engine_db.execute(f"SELECT * FROM {name}").rows,
            )
            for name in ("t", "dim", "empty")
        }
    )
    yield connection
    connection.close()


def null_propagating(function):
    return lambda *args: None if None in args else function(*args)


def sqlite_twin(tables):
    """An in-memory SQLite database holding *tables* — ``{name: (columns,
    rows)}`` — in typeless columns, with the PDM stored functions."""
    connection = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        marks = ", ".join("?" * len(columns))
        connection.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    for name, function in CLIENT_FUNCTIONS.items():
        connection.create_function(name, -1, null_propagating(function))
    return connection


def assert_same_multiset(db, oracle, sql, params=()):
    ours = Counter(db.execute(sql, list(params)).rows)
    theirs = Counter(oracle.execute(sql, list(params)).fetchall())
    assert ours == theirs, f"{sql}\nparams={params!r}"
    return sum(ours.values())


@pytest.fixture(scope="module")
def pdm():
    """δ=4 κ=3 σ=0.6 product in both engines, plus the roots to expand:
    the product root, an assembly the generator made invisible, a
    lowest-level (leaf) assembly, an inner visible assembly and a visible
    component (a where-used start; every expand of it is empty).  The
    rewrites carry their own rule constants, so they prune further:
    ``rewrite-mle-early-inside`` returns nothing for three of the five."""
    product = generate_product(
        TreeParameters(depth=4, branching=3, visibility=0.6), seed=4
    )
    db = new_pdm_database()
    load_product(db, product)
    oracle = sqlite_twin(
        {
            name: (
                db.catalog.lookup(name).schema.column_names,
                [record.to_row() for record in records],
            )
            for name, records in (
                ("assy", product.assemblies),
                ("comp", product.components),
                ("link", product.links),
            )
        }
    )
    assemblies = {assembly.obid for assembly in product.assemblies}
    visible = product.visible_obids

    def has_assembly_child(obid):
        return any(c in assemblies for __, c in product.children[obid])

    roots = {
        "root": product.root_obid,
        "invisible": min(assemblies - visible),
        "leaf-assembly": min(
            o for o in assemblies & visible if not has_assembly_child(o)
        ),
        "inner-assembly": min(
            o
            for o in assemblies & visible
            if o != product.root_obid and has_assembly_child(o)
        ),
        "component": max(visible - assemblies),
    }
    yield db, oracle, roots, product
    oracle.close()


class TestRecursiveTemplates:
    def test_corpus_is_the_seven_recursive_selects(self):
        assert sorted(name for name, __ in RECURSIVE_TEMPLATES) == [
            "mle-recursive",
            "mle-recursive-depth-bounded",
            "mle-recursive-ordered",
            "rewrite-mle-checkout-forall",
            "rewrite-mle-early-inside",
            "rewrite-mle-early-outside",
            "where-used-recursive",
        ]

    @pytest.mark.parametrize(
        "name, sql", RECURSIVE_TEMPLATES, ids=[n for n, __ in RECURSIVE_TEMPLATES]
    )
    def test_same_rows_as_sqlite_from_every_root(self, pdm, name, sql):
        db, oracle, roots, __ = pdm
        returned = {}
        for label, obid in roots.items():
            # The first parameter is the root; the depth-bounded template
            # binds its bound twice after it.
            params = [obid] + [2] * (sql.count("?") - 1)
            returned[label] = assert_same_multiset(db, oracle, sql, params)
        assert max(returned.values()) > 1, "vacuous: no root returned a tree"


class TestFlatTemplates:
    def test_with_the_recursive_ones_they_are_every_select(self):
        selects = {name for name, __ in RECURSIVE_TEMPLATES + FLAT_TEMPLATES}
        others = {name for name, __ in template_queries()} - selects
        assert len(FLAT_TEMPLATES) == 16
        assert others == {"update-checkout-1", "update-checkout-4"}

    @pytest.mark.parametrize(
        "name, sql", FLAT_TEMPLATES, ids=[n for n, __ in FLAT_TEMPLATES]
    )
    def test_same_rows_as_sqlite(self, pdm, name, sql):
        db, oracle, roots, product = pdm
        width = sql.count("?")
        if name == "set-query":
            # Both branches filter on the product id; one that exists and
            # one that does not.
            bindings = [[product.assemblies[0].product] * 2, [-1] * 2]
        elif name.startswith("batched-children"):
            # A frontier as wide as the IN list, once led by the root
            # (assembly children) and once by a leaf assembly (component
            # children), then every assembly in order — repeating when
            # the list is longer than the product.
            assemblies = sorted(a.obid for a in product.assemblies)
            bindings = [
                [([lead] + assemblies)[i % (len(assemblies) + 1)]
                 for i in range(width)]
                for lead in (roots["root"], roots["leaf-assembly"])
            ]
        else:
            # One object (or parent, or child) id, bound once per branch.
            bindings = [[obid] * width for obid in roots.values()]
        returned = sum(
            assert_same_multiset(db, oracle, sql, params) for params in bindings
        )
        assert returned > 0, "vacuous: no binding returned a row"


class TestEngineCorpus:
    @pytest.mark.parametrize("sql", ENGINE_CORPUS)
    def test_same_rows_as_sqlite(self, engine_db, engine_oracle, sql):
        params = list(CORPUS_PARAMS.get(sql, ()))
        ours = engine_db.execute(sql, params).rows
        theirs = engine_oracle.execute(sqlite_text(sql), params).fetchall()
        if sql in TOTAL_ORDER:
            assert ours == theirs, sql
        else:
            assert Counter(ours) == Counter(theirs), sql

    def test_sqlite_rejects_only_the_catalogued_grammar(self, engine_oracle):
        assert NO_SQLITE_GRAMMAR <= set(ENGINE_CORPUS)
        assert TOTAL_ORDER <= set(ENGINE_CORPUS)
        for sql in NO_SQLITE_GRAMMAR:
            with pytest.raises(sqlite3.OperationalError, match="syntax error"):
                engine_oracle.execute(sql, CORPUS_PARAMS.get(sql, ()))


def matrix_databases(s_values, analyzed):
    """``t`` (40 rows; ``k`` indexed in the engine, ``u`` the same values
    unindexed, every tenth NULL) and ``s (x)`` holding *s_values*."""
    t_rows = [
        (i, None if i % 10 == 9 else i % 8, None if i % 10 == 9 else i % 8)
        for i in range(40)
    ]
    s_rows = [(value,) for value in s_values]
    db = Database()
    db.execute_script(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, u INTEGER);"
        "CREATE INDEX t_k ON t (k);"
        "CREATE TABLE s (x INTEGER)"
    )
    db.executemany("INSERT INTO t VALUES (?, ?, ?)", t_rows)
    db.executemany("INSERT INTO s VALUES (?)", s_rows)
    if analyzed:
        db.execute("ANALYZE")
    oracle = sqlite_twin(
        {"t": (["id", "k", "u"], t_rows), "s": (["x"], s_rows)}
    )
    return db, oracle


class TestInSubqueryNullMatrix:
    @pytest.mark.parametrize("analyzed", [False, True], ids=["rules", "stats"])
    @pytest.mark.parametrize(
        "s_values",
        [[], [1, 3], [1, None, 3, 1], [None], list(range(8)) + [None]],
        ids=["empty", "values", "values+null", "only-null", "every-key+null"],
    )
    def test_three_valued_membership_matches_sqlite(self, s_values, analyzed):
        db, oracle = matrix_databases(s_values, analyzed)
        try:
            for column in ("k", "u"):
                for keyword in ("IN", "NOT IN"):
                    test = f"{column} {keyword} (SELECT x FROM s)"
                    assert_same_multiset(
                        db, oracle, f"SELECT id FROM t WHERE {test}"
                    )
                    # ...and the UNKNOWNs themselves, not just what WHERE
                    # keeps of them.
                    assert_same_multiset(
                        db, oracle, f"SELECT id, {test} FROM t"
                    )
                    assert_same_multiset(
                        db,
                        oracle,
                        f"SELECT id FROM t WHERE {test} AND id < 20 "
                        f"OR id IN (SELECT x FROM s)",
                    )
        finally:
            oracle.close()

    def test_negative_offset_skips_nothing(self):
        """As in SQLite (which wants a LIMIT before any OFFSET), over a
        scan and over a probe."""
        db, oracle = matrix_databases([], analyzed=False)
        try:
            for sql, count, probes in (
                ("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET -1", 2, 0),
                ("SELECT id FROM t WHERE k IN (1, 2) LIMIT 50 OFFSET -3", 9, 2),
            ):
                assert assert_same_multiset(db, oracle, sql) == count
                assert db.last_counters["index_probes"] == probes
        finally:
            oracle.close()

    def test_a_list_of_mixed_kinds_is_membership(self):
        """An item of the other kind is no match, not an error, on the
        indexed column (probed) and the unindexed one, whether the list
        holds constants or expressions (DESIGN §10)."""
        db, oracle = matrix_databases([1, None, 3], analyzed=False)
        try:
            for column in ("k", "u"):
                for keyword in ("IN", "NOT IN"):
                    for items in ("1, 'x'", f"{column}, 'x'", "'x', NULL"):
                        test = f"{column} {keyword} ({items})"
                        assert_same_multiset(db, oracle, f"SELECT id, {test} FROM t")
                        assert_same_multiset(db, oracle, f"SELECT id FROM t WHERE {test}")
        finally:
            oracle.close()

    def test_the_matrix_exercises_the_probe_path(self):
        db, oracle = matrix_databases([1, None, 3, 1], analyzed=False)
        oracle.close()
        db.execute("SELECT id FROM t WHERE k IN (SELECT x FROM s)")
        assert db.last_counters["index_probes"] == 2
        db.execute("SELECT id FROM t WHERE u IN (SELECT x FROM s)")
        assert db.last_counters["index_probes"] == 0


class TestRecursionWithoutFixpoint:
    """Over the chain 1 -> 2 -> 3 -> 4 -> 5 in both engines."""

    @pytest.fixture(scope="class")
    def chain(self):
        rows = [(1, 2), (2, 3), (3, 4), (4, 5)]
        db = Database()
        db.execute("CREATE TABLE e (a INTEGER, b INTEGER)")
        db.executemany("INSERT INTO e VALUES (?, ?)", rows)
        oracle = sqlite_twin({"e": (["a", "b"], rows)})
        yield db, oracle
        oracle.close()

    @pytest.mark.parametrize("shape", sorted(NO_FIXPOINT))
    def test_both_refuse(self, chain, shape):
        db, oracle = chain
        with pytest.raises(ParseError):
            db.execute(NO_FIXPOINT[shape])
        with pytest.raises(sqlite3.OperationalError):
            oracle.execute(NO_FIXPOINT[shape])

    def test_linear_closure_same_rows(self, chain):
        db, oracle = chain
        assert assert_same_multiset(db, oracle, LINEAR_CLOSURE) == 10
