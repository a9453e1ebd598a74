"""INSERT / UPDATE / DELETE / DDL semantics."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CatalogError, ExecutionError, IntegrityError, TypeMismatchError
from repro.sqldb import Database


@pytest.fixture
def db():
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(10), n INTEGER)"
    )
    return db


class TestInsert:
    def test_insert_and_rowcount(self, db):
        result = db.execute("INSERT INTO t VALUES (1, 'a', 10)")
        assert result.rowcount == 1

    def test_multi_row_insert(self, db):
        result = db.execute("INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 2)")
        assert result.rowcount == 2
        assert db.table_rowcount("t") == 2

    def test_insert_with_column_list_fills_nulls(self, db):
        db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
        assert db.execute("SELECT n FROM t").scalar() is None

    def test_insert_with_params(self, db):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", [1, "x", 5])
        assert db.execute("SELECT name FROM t WHERE id = 1").scalar() == "x"

    def test_insert_select(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20)")
        db.execute("CREATE TABLE t2 (id INTEGER, name VARCHAR(10), n INTEGER)")
        result = db.execute("INSERT INTO t2 SELECT * FROM t WHERE n > 15")
        assert result.rowcount == 1

    def test_duplicate_primary_key_rejected(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (1, 'b', 2)")

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, name) VALUES (1)")

    def test_not_null_violation(self, db):
        db.execute("CREATE TABLE strict (a INTEGER NOT NULL)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO strict VALUES (NULL)")

    def test_values_coerced_to_column_type(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', ?)", ["7"])
        assert db.execute("SELECT n FROM t").scalar() == 7

    def test_executemany(self, db):
        total = db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i, f"r{i}", i * 10) for i in range(5)],
        )
        assert total == 5
        assert db.table_rowcount("t") == 5


class TestInfinityIntoInteger:
    """Infinity cannot be an INTEGER: a typed error, and no row changes."""

    @pytest.fixture(autouse=True)
    def seed(self, db):
        db.execute("CREATE TABLE f (id INTEGER PRIMARY KEY, a INTEGER, x DOUBLE)")
        db.execute("INSERT INTO f VALUES (1, 1, 2.0), (2, 2, 3.0)")

    def heap(self, db):
        return db.execute("SELECT * FROM f ORDER BY id").rows

    @pytest.mark.parametrize(
        "sql,params",
        [
            ("INSERT INTO f (id, a) VALUES (3, 1e400)", []),
            ("INSERT INTO f (id, a) VALUES (?, ?)", [3, float("inf")]),
            ("UPDATE f SET a = x * 1e400", []),
        ],
    )
    def test_is_a_type_error_with_the_heap_unchanged(self, db, sql, params):
        before = self.heap(db)
        with pytest.raises(TypeMismatchError, match="cannot coerce inf to INTEGER"):
            db.execute(sql, params)
        assert self.heap(db) == before


class TestUpdate:
    @pytest.fixture(autouse=True)
    def seed(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)")

    def test_update_with_where(self, db):
        result = db.execute("UPDATE t SET n = 0 WHERE id = 2")
        assert result.rowcount == 1
        assert db.execute("SELECT n FROM t WHERE id = 2").scalar() == 0

    def test_update_all_rows(self, db):
        assert db.execute("UPDATE t SET n = 1").rowcount == 3

    def test_update_expression_sees_old_values(self, db):
        db.execute("UPDATE t SET n = n + 1, name = name || '!' WHERE id = 1")
        row = db.execute("SELECT n, name FROM t WHERE id = 1").fetchone()
        assert row == (11, "a!")

    def test_update_with_in_list(self, db):
        result = db.execute("UPDATE t SET n = -1 WHERE id IN (?, ?)", [1, 3])
        assert result.rowcount == 2

    def test_update_indexed_column_keeps_index_consistent(self, db):
        db.execute("CREATE INDEX t_n ON t (n)")
        db.execute("UPDATE t SET n = 99 WHERE id = 1")
        assert db.execute("SELECT id FROM t WHERE n = 99").scalar() == 1
        assert len(db.execute("SELECT id FROM t WHERE n = 10")) == 0

    def test_update_with_subquery_in_where(self, db):
        db.execute(
            "UPDATE t SET name = 'max' WHERE n = (SELECT MAX(n) FROM t)"
        )
        assert db.execute("SELECT name FROM t WHERE id = 3").scalar() == "max"


class TestDelete:
    @pytest.fixture(autouse=True)
    def seed(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)")

    def test_delete_with_where(self, db):
        assert db.execute("DELETE FROM t WHERE n >= 20").rowcount == 2
        assert db.table_rowcount("t") == 1

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM t").rowcount == 3
        assert db.table_rowcount("t") == 0

    def test_deleted_rows_not_scanned(self, db):
        db.execute("DELETE FROM t WHERE id = 2")
        assert sorted(db.execute("SELECT id FROM t").column("id")) == [1, 3]

    def test_reinsert_after_delete_allows_same_pk(self, db):
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("INSERT INTO t VALUES (1, 'again', 0)")
        assert db.execute("SELECT name FROM t WHERE id = 1").scalar() == "again"


class TestDDL:
    def test_create_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (x INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM t")

    def test_drop_missing_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE missing")

    def test_create_index_on_existing_data(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10)")
        db.execute("CREATE INDEX t_n ON t (n)")
        assert db.execute("SELECT id FROM t WHERE n = 10").scalar() == 1

    def test_unique_index_rejects_duplicates(self, db):
        db.execute("CREATE UNIQUE INDEX t_name ON t (name)")
        db.execute("INSERT INTO t VALUES (1, 'a', 1)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (2, 'a', 2)")

    def test_duplicate_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE dup (x INTEGER, x INTEGER)")

    def test_table_names_listing(self, db):
        assert "t" in db.table_names()


class TestPlanCache:
    def test_repeated_select_hits_cache(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10)")
        db.execute("SELECT * FROM t WHERE id = ?", [1])
        before = db.statistics["plan_cache_hits"]
        db.execute("SELECT * FROM t WHERE id = ?", [1])
        assert db.statistics["plan_cache_hits"] == before + 1

    def test_cache_cleared_on_drop(self, db):
        db.execute("SELECT * FROM t")
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (different INTEGER)")
        result = db.execute("SELECT * FROM t")
        assert result.columns == ["different"]

    def test_different_params_share_plan(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20)")
        first = db.execute("SELECT name FROM t WHERE id = ?", [1]).scalar()
        second = db.execute("SELECT name FROM t WHERE id = ?", [2]).scalar()
        assert (first, second) == ("a", "b")


def plan_lines(db, sql):
    return [row[0] for row in db.execute(f"EXPLAIN {sql}").rows]


@pytest.fixture(scope="module")
def pdm_db():
    from repro.pdm.schema import new_pdm_database

    return new_pdm_database()


class TestTargetAccessPath:
    """UPDATE/DELETE locate their rows through the planner's access paths;
    ``EXPLAIN`` shows which one (CI: the "DML access-path gate")."""

    @pytest.fixture(autouse=True)
    def seed(self, db):
        db.execute("CREATE INDEX t_n ON t (n)")
        db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 20)")

    def test_access_path_labels(self, db):
        assert plan_lines(db, "UPDATE t SET name = 'x' WHERE id = ?") == [
            "-> Filter",
            "  -> IndexLookup(t via t_pk)",
        ]
        assert plan_lines(db, "DELETE FROM t WHERE n IN (?, ?, ?)") == [
            "-> Filter",
            "  -> MultiKeyIndexLookup(t via t_n, 3 keys)",
        ]
        assert plan_lines(
            db, "DELETE FROM t WHERE id IN (SELECT id FROM t WHERE n = 20)"
        ) == [
            "-> Filter",
            "  -> MultiKeyIndexLookup(t via t_pk, keys from subquery)",
        ]

    def test_access_path_without_an_index_is_the_filtered_scan(self, db):
        assert plan_lines(db, "UPDATE t SET n = 0 WHERE name = 'a'") == [
            "-> Filter",
            "  -> SeqScan(t)",
        ]
        assert plan_lines(db, "DELETE FROM t WHERE id NOT IN (1, 2)") == [
            "-> Filter",
            "  -> SeqScan(t)",
        ]
        assert plan_lines(db, "DELETE FROM t") == ["-> SeqScan(t)"]

    def test_access_path_is_priced_once_statistics_exist(self, db):
        db.executemany(
            "INSERT INTO t VALUES (?, 'z', 20)", [(i,) for i in range(10, 60)]
        )
        db.execute("UPDATE t SET n = 20")
        db.execute("ANALYZE t")
        # n = 20 is the whole table: the scan is the cheaper path.
        assert plan_lines(db, "DELETE FROM t WHERE n = 20")[1].startswith(
            "  -> SeqScan(t)"
        )
        assert plan_lines(db, "DELETE FROM t WHERE id = 3")[1].startswith(
            "  -> IndexLookup(t via t_pk)"
        )

    def test_access_path_of_plan_statement(self, db):
        from repro.sqldb.executor import Filter, IndexLookup
        from repro.sqldb.parser import parse_statement

        plan = db.plan_statement(parse_statement("DELETE FROM t WHERE id = 1"))
        assert isinstance(plan.root, Filter)
        assert isinstance(plan.root.child, IndexLookup)
        assert db.table_rowcount("t") == 3  # planned, never executed

    def test_explain_analyze_is_not_extended_to_dml(self, db):
        with pytest.raises(ExecutionError, match="would execute the write"):
            db.execute("EXPLAIN ANALYZE DELETE FROM t WHERE id = 1")
        assert db.table_rowcount("t") == 3

    # perfbench/workloads.py: ECO_ASSY_SQL and ECO_LINK_SQL.
    ECO_TEXTS = (
        "UPDATE assy SET weight = ?, state = 'eco' WHERE obid = ?",
        "UPDATE link SET eff_to = ? WHERE left = ?",
    )

    @pytest.mark.parametrize("sql", ECO_TEXTS)
    def test_access_path_of_the_perfbench_eco_texts(self, pdm_db, sql):
        assert plan_lines(pdm_db, sql)[1].startswith("  -> IndexLookup(")

    @pytest.mark.parametrize("table", ["assy", "comp"])
    @pytest.mark.parametrize("value", ["TRUE", "FALSE"])
    def test_access_path_of_every_update_checkout_shape(self, pdm_db, table, value):
        from repro.pdm import queries
        from repro.pdm.operations import BATCH_KEY_BUCKETS

        for count in BATCH_KEY_BUCKETS:
            lines = plan_lines(
                pdm_db, queries.update_checkout_sql(table, count, value)
            )
            assert lines == [
                "-> Filter",
                f"  -> MultiKeyIndexLookup({table} via {table}_pk, {count} keys)",
            ]

    def test_last_counters_report_the_lookup(self, db):
        db.execute("UPDATE t SET name = 'x' WHERE id = ?", [2])
        assert db.last_counters["index_probes"] == 1
        assert db.last_counters["rows_scanned"] == 1
        db.execute("DELETE FROM t WHERE name = 'x'")
        assert db.last_counters["index_probes"] == 0
        assert db.last_counters["rows_scanned"] == 3
        db.execute("INSERT INTO t VALUES (9, 'i', 1)")
        assert db.last_counters == {}

    def test_answer_proportional_single_key_update(self):
        """The same one-row UPDATE costs one probe and one row in a small
        and in a 9x larger product (exact counters, no clock)."""
        from repro.model.parameters import TreeParameters
        from repro.pdm.generator import generate_product
        from repro.pdm.schema import load_product, new_pdm_database

        counters = []
        for depth in (3, 5):
            database = new_pdm_database()
            product = generate_product(
                TreeParameters(depth=depth, branching=3), seed=4
            )
            load_product(database, product)
            target = product.assemblies[-1].obid
            result = database.execute(self.ECO_TEXTS[0], [1.5, target])
            assert result.rowcount == 1
            counters.append(dict(database.last_counters))
        assert counters[0] == counters[1]
        assert counters[0]["rows_scanned"] == 1
        assert counters[0]["index_probes"] == 1


class TestHalloweenAndOrder:
    @pytest.fixture
    def keyed(self):
        db = Database()
        db.execute(
            "CREATE TABLE link (id INTEGER PRIMARY KEY, k INTEGER, hits INTEGER)"
        )
        db.execute("CREATE INDEX link_k ON link (k)")
        db.executemany(
            "INSERT INTO link VALUES (?, ?, 0)",
            [(1, 1), (2, 1), (3, 2), (4, 1), (5, 2), (6, 3)],
        )
        return db

    def test_update_moving_its_own_index_key_touches_each_row_once(self, keyed):
        sql = "UPDATE link SET k = k + 1, hits = hits + 1 WHERE k = ?"
        assert "IndexLookup(link via link_k)" in plan_lines(keyed, sql)[1]
        assert keyed.execute(sql, [1]).rowcount == 3
        assert keyed.execute("SELECT id, k, hits FROM link").rows == [
            (1, 2, 1), (2, 2, 1), (3, 2, 0), (4, 2, 1), (5, 2, 0), (6, 3, 0),
        ]

    def test_in_list_update_chasing_its_own_keys_touches_each_row_once(self, keyed):
        sql = "UPDATE link SET k = k + 1, hits = hits + 1 WHERE k IN (?, ?, ?)"
        assert keyed.execute(sql, [1, 2, 3]).rowcount == 6
        assert keyed.execute("SELECT MAX(hits), MIN(hits) FROM link").rows == [(1, 1)]
        assert sorted(keyed.execute("SELECT k FROM link").column("k")) == [
            2, 2, 2, 3, 3, 4,
        ]

    def test_row_locks_are_requested_in_ascending_row_id_order(self, keyed):
        from repro.concurrency import LockManager

        manager = LockManager()
        keyed.attach_lock_manager(manager)
        requested = []
        acquire = manager.acquire

        def recording(txn_id, table, row_id, mode, park=True):
            requested.append(row_id)
            return acquire(txn_id, table, row_id, mode, park=park)

        manager.acquire = recording
        with keyed.transaction():
            keyed.execute(
                "UPDATE link SET hits = 1 WHERE id IN (?, ?, ?, ?)", [5, 1, 4, 2]
            )
            assert requested == [0, 1, 3, 4]  # row ids, not the list's order
            del requested[:]
            keyed.execute("DELETE FROM link WHERE k IN (?, ?)", [3, 1])
            assert requested == [0, 1, 3, 5]


class TestPreparedDmlCache:
    @staticmethod
    def hits_on_next_execution(db, sql, params=()):
        before = db.statistics["plan_cache_hits"]
        db.execute(sql, params)
        return db.statistics["plan_cache_hits"] - before

    def test_second_execution_is_a_cache_hit(self, db):
        for sql, params in (
            ("INSERT INTO t VALUES (?, ?, ?)", [1, "a", 10]),
            ("UPDATE t SET n = n + 1 WHERE id = ?", [1]),
            ("DELETE FROM t WHERE id = ?", [1]),
        ):
            assert self.hits_on_next_execution(db, sql, params) == 0
            if sql.startswith("INSERT"):
                params = [2, "b", 20]
            assert self.hits_on_next_execution(db, sql, params) == 1

    def test_drop_and_recreate_forces_a_replan(self, db):
        sql = "UPDATE t SET n = 1 WHERE id = 1"
        db.execute(sql)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (n INTEGER, id INTEGER)")
        db.execute("INSERT INTO t VALUES (0, 1)")
        assert self.hits_on_next_execution(db, sql) == 0
        assert db.execute("SELECT n, id FROM t").rows == [(1, 1)]

    def test_analyze_forces_a_replan(self, db):
        sql = "DELETE FROM t WHERE id = ?"
        db.execute(sql, [1])
        db.execute("ANALYZE")
        assert self.hits_on_next_execution(db, sql, [1]) == 0
        assert self.hits_on_next_execution(db, sql, [1]) == 1

    @pytest.mark.parametrize(
        "sql",
        ["SELECT id FROM t WHERE n = 20", "UPDATE t SET name = 'x' WHERE n = 20"],
    )
    def test_create_index_forces_a_replan(self, db, sql):
        # Enough distinct keys that one probe is cheaper than the scan
        # (on three rows the probe would be priced out at run time).
        db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)", [(i, "r", 10 * i) for i in range(1, 9)]
        )
        assert "SeqScan(t)" in plan_lines(db, sql)[-1]
        db.execute(sql)
        assert db.last_counters["index_probes"] == 0
        db.execute("CREATE INDEX t_n ON t (n)")
        assert "IndexLookup(t via t_n)" in plan_lines(db, sql)[-1]
        # The cached text must not keep scanning forever.
        assert self.hits_on_next_execution(db, sql) == 0
        assert db.last_counters["index_probes"] == 1
        assert db.last_counters["rows_scanned"] == 1

    def test_lru_eviction_is_shared_with_select(self):
        db = Database(plan_cache_size=2)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)")
        select = "SELECT n FROM t WHERE id = ?"
        update = "UPDATE t SET n = 0 WHERE id = ?"
        delete = "DELETE FROM t WHERE id = ?"
        db.execute(select, [1])
        db.execute(update, [1])
        db.execute(delete, [1])  # evicts the SELECT, the oldest entry
        assert self.hits_on_next_execution(db, update, [1]) == 1
        assert self.hits_on_next_execution(db, select, [1]) == 0  # evicts DELETE
        assert self.hits_on_next_execution(db, delete, [1]) == 0

    def test_read_only_transaction_rejects_dml_cached_or_not(self, db):
        sql = "UPDATE t SET n = 0 WHERE id = ?"
        db.execute(sql, [1])
        db.begin(read_only=True)
        with pytest.raises(ExecutionError, match="READ ONLY"):
            db.execute(sql, [1])
        with pytest.raises(ExecutionError, match="READ ONLY"):
            db.execute("DELETE FROM no_such_table")  # rejected before planning
        db.rollback()

    def test_executemany_prepares_once(self, db, monkeypatch):
        calls = []
        prepare = db._prepare_dml
        monkeypatch.setattr(
            db, "_prepare_dml", lambda stmt: calls.append(stmt) or prepare(stmt)
        )
        db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)", [(i, "r", i) for i in range(5)]
        )
        assert db.executemany("UPDATE t SET n = ? WHERE id = ?", [(0, 1), (0, 9)]) == 1
        assert len(calls) == 2


# -- differential: the access path never changes what a statement does -------

KEYS = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
SMALL = st.integers(min_value=0, max_value=9)

OPERATIONS = st.one_of(
    st.tuples(st.just("INSERT INTO t VALUES (?, ?, ?)"), st.tuples(KEYS, SMALL)),
    st.tuples(st.just("UPDATE t SET v = v + 1 WHERE k = ?"), st.tuples(KEYS)),
    st.tuples(st.just("UPDATE t SET k = ? WHERE k = ?"), st.tuples(KEYS, KEYS)),
    st.tuples(
        st.just("UPDATE t SET k = k + 1, v = v + 1 WHERE k IN (?, ?, ?)"),
        st.tuples(KEYS, KEYS, KEYS),
    ),
    st.tuples(
        st.just("UPDATE t SET v = 0 WHERE k NOT IN (?, ?)"), st.tuples(KEYS, KEYS)
    ),
    st.tuples(
        st.just("UPDATE t SET v = v + 1 WHERE k = ? AND v > ?"),
        st.tuples(KEYS, SMALL),
    ),
    st.tuples(st.just("UPDATE t SET v = v + 1"), st.just(())),
    st.tuples(
        st.just("DELETE FROM t WHERE k IN (SELECT k FROM t WHERE v > ?)"),
        st.tuples(SMALL),
    ),
    st.tuples(
        st.just("DELETE FROM t WHERE id IN (SELECT id FROM t WHERE k = ?)"),
        st.tuples(KEYS),
    ),
    st.tuples(
        st.just("DELETE FROM t WHERE id = ?"),
        st.tuples(st.integers(min_value=0, max_value=12)),
    ),
    st.tuples(st.just("DELETE FROM t WHERE k = ? OR v = ?"), st.tuples(KEYS, SMALL)),
)

INDEXED_DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)",
    "CREATE INDEX t_k ON t (k)",
)
PLAIN_DDL = ("CREATE TABLE t (id INTEGER, k INTEGER, v INTEGER)",)


def with_fresh_ids(operations):
    """Bind every INSERT's id to the next unused one (the plain table has
    no key to reject a duplicate with)."""
    bound = []
    for sql, params in operations:
        if sql.startswith("INSERT"):
            params = (sum(s.startswith("INSERT") for s, __ in bound),) + params
        bound.append((sql, list(params)))
    return bound


def run(db, operations):
    return [db.execute(sql, params).rowcount for sql, params in operations]


def scripted(ddl, db=None):
    db = db if db is not None else Database()
    for statement in ddl:
        db.execute(statement)
    return db


class TestAccessPathDifferential:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(OPERATIONS, min_size=1, max_size=25).map(with_fresh_ids))
    @example(
        [
            # Row 0 joins row 1's bucket behind it: the k = 1 probe yields
            # bucket order (1, 0), the heap holds (0, 1).
            ("INSERT INTO t VALUES (?, ?, ?)", [0, 0, 0]),
            ("INSERT INTO t VALUES (?, ?, ?)", [1, 1, 0]),
            (
                "UPDATE t SET k = k + 1, v = v + 1 WHERE k IN (?, ?, ?)",
                [None, None, 0],
            ),
        ]
    )
    def test_indexed_and_unindexed_tables_agree(self, operations):
        indexed, plain = scripted(INDEXED_DDL), scripted(PLAIN_DDL)
        assert run(indexed, operations) == run(plain, operations)
        heap = plain.execute("SELECT * FROM t").rows
        assert indexed.execute("SELECT * FROM t").rows == heap
        # ... and every index still finds exactly the heap's rows.
        for row in heap:
            assert indexed.execute(
                "SELECT * FROM t WHERE id = ?", [row[0]]
            ).rows == [row]
        for key in range(6):
            # An un-ORDERed probe yields bucket order, not heap order:
            # the same rows (ids are unique, so sorting compares only ids).
            assert sorted(
                indexed.execute("SELECT * FROM t WHERE k = ?", [key]).rows
            ) == sorted(row for row in heap if row[1] == key)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(OPERATIONS, min_size=1, max_size=25).map(with_fresh_ids),
        st.integers(min_value=0, max_value=25),
    )
    def test_crash_and_recovery_rebuild_the_same_heap(self, operations, cut):
        from repro.recovery import Durability, SimDisk

        durability = Durability(SimDisk())
        db = scripted(INDEXED_DDL, durability.open())
        run(db, operations[:cut])
        if cut < len(operations):
            durability.checkpoint()
        run(db, operations[cut:])
        plain = scripted(PLAIN_DDL)
        run(plain, operations)
        expected = plain.execute("SELECT * FROM t").rows
        assert db.execute("SELECT * FROM t").rows == expected
        version = db.catalog.lookup("t").storage.version
        recovered = durability.recover()  # the crash: memory is gone
        assert recovered.execute("SELECT * FROM t").rows == expected
        if cut >= len(operations):
            # Whole log replayed: even no-op updates bumped the counters.
            assert recovered.catalog.lookup("t").storage.version == version
