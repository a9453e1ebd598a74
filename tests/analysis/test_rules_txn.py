"""Transaction-script C-rules: one triggering and one deliberately
similar non-triggering case per rule, the script model, and the proof
that the static footprint matches what the runtime actually acquires."""

import pytest

from repro.analysis import Severity
from repro.analysis.txn import (
    analyze_transaction_sql,
    analyze_transaction_workload,
    parse_txn_script,
    script_is_sequenced,
)
from repro.concurrency.footprint import (
    Granularity,
    LockRequest,
    may_conflict,
    may_overlap,
)
from repro.concurrency.locks import LockManager, LockMode
from repro.sqldb import Database

S = LockMode.SHARED
X = LockMode.EXCLUSIVE

SCHEMA = [
    "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
    "CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)",
    "CREATE TABLE nokey (v INTEGER)",
    "INSERT INTO t VALUES (1, 10), (2, 20)",
    "INSERT INTO u VALUES (1, 10), (2, 20)",
]


@pytest.fixture
def db():
    database = Database()
    for statement in SCHEMA:
        database.execute(statement)
    return database


def rule_ids(findings):
    return {finding.rule_id for finding in findings}


def find(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestScriptModel:
    def test_explicit_segment_spans_begin_to_commit(self):
        script = parse_txn_script(
            "s",
            "BEGIN; UPDATE t SET v = 1 WHERE id = 1; COMMIT;"
            " SELECT v FROM t",
        )
        explicit, autocommit = script.segments
        assert explicit.explicit
        assert [s.index for s in explicit.statements] == [1]
        assert not autocommit.explicit
        assert [s.index for s in autocommit.statements] == [3]

    def test_unterminated_transaction_has_no_end(self):
        # The locks are held to the end of the script (and beyond).
        script = parse_txn_script(
            "s", "BEGIN; UPDATE t SET v = 1 WHERE id = 1; SELECT v FROM u"
        )
        (segment,) = script.segments
        assert segment.explicit
        assert [s.index for s in segment.statements] == [1, 2]

    def test_rollback_terminates_uncommitted(self):
        script = parse_txn_script(
            "s",
            "BEGIN; UPDATE t SET v = 1 WHERE id = 1; ROLLBACK;"
            " SELECT v FROM t",
        )
        explicit, autocommit = script.segments
        assert explicit.explicit
        assert [s.index for s in explicit.statements] == [1]
        assert not autocommit.explicit

    def test_pragma_marks_script_sequenced(self):
        text = "-- pragma: sequenced\nUPDATE t SET v = v + 1 WHERE id = 1"
        assert script_is_sequenced(text)
        assert parse_txn_script("s", text).sequenced

    def test_pragma_only_counts_in_comments(self):
        assert not script_is_sequenced("SELECT v FROM t")
        # The flag can be forced regardless of the text.
        script = parse_txn_script("s", "SELECT v FROM t", sequenced=True)
        assert script.sequenced


class TestFootprintMatchesRuntime:
    """The static model and the runtime share one acquisition policy:
    every lock the engine actually holds inside a transaction maps onto
    a static request of the same table, mode, and granularity."""

    def locked_db(self):
        database = Database()
        for statement in SCHEMA:
            database.execute(statement)
        manager = LockManager()
        database.attach_lock_manager(manager)
        return database, manager

    def assert_held_covered(self, held, footprint):
        assert held, "statement acquired no locks"
        for (table, row_id), mode in held:
            granularity = (
                Granularity.TABLE if row_id is None else Granularity.ROWS
            )
            matches = [
                request
                for request in footprint
                if request.table == table
                and request.mode is mode
                and request.granularity is granularity
            ]
            assert matches, (
                f"runtime holds {mode.value} on {(table, row_id)} with no "
                f"matching static request in {footprint}"
            )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v FROM t WHERE id = 1",
            "INSERT INTO t VALUES (3, 30)",
            "UPDATE t SET v = 5 WHERE id = 1",
            "DELETE FROM u WHERE id = 2",
            "UPDATE t SET v = 0",
            "INSERT INTO u SELECT id + 10, v FROM t",
        ],
    )
    def test_static_footprint_covers_runtime_locks(self, sql):
        database, manager = self.locked_db()
        script = parse_txn_script("s", sql, database=database)
        (stmt,) = script.statements
        txn_id = database.begin()
        database.execute(sql)
        self.assert_held_covered(manager.locks_held(txn_id), stmt.footprint)
        database.rollback()


class TestMayConflict:
    def test_disjoint_literal_keys_do_not_overlap(self):
        a = LockRequest("t", X, Granularity.ROWS, key_column="id", keys=(1,))
        b = LockRequest("t", X, Granularity.ROWS, key_column="id", keys=(2,))
        assert not may_overlap(a, b)
        assert not may_conflict(a, b)

    def test_unbounded_rows_overlap_everything_on_the_table(self):
        bounded = LockRequest(
            "t", X, Granularity.ROWS, key_column="id", keys=(1,)
        )
        unbounded = LockRequest("t", X, Granularity.ROWS)
        assert may_conflict(bounded, unbounded)

    def test_shared_requests_never_conflict(self):
        a = LockRequest("t", S, Granularity.TABLE)
        b = LockRequest("t", S, Granularity.TABLE)
        assert may_overlap(a, b) and not may_conflict(a, b)

    def test_different_tables_never_overlap(self):
        a = LockRequest("t", X, Granularity.TABLE)
        b = LockRequest("u", X, Granularity.TABLE)
        assert not may_overlap(a, b)


class TestC001Inversion:
    def increments(self, order):
        updates = ";\n".join(
            f"UPDATE t SET v = 1 WHERE id = {key}" for key in order
        )
        return f"BEGIN;\n{updates};\nCOMMIT"

    def test_opposite_key_order_triggers(self):
        first = parse_txn_script("ab", self.increments([1, 2]))
        second = parse_txn_script("ba", self.increments([2, 1]))
        report = analyze_transaction_workload([first, second])
        findings = find(report.findings, "C001")
        assert findings and all(
            f.severity is Severity.WARNING for f in findings
        )
        assert any(
            set(cycle.scripts) == {"ab", "ba"} and cycle.tables == ("t",)
            for cycle in report.cycles
        )

    def test_same_key_order_is_clean(self):
        first = parse_txn_script("one", self.increments([1, 2]))
        second = parse_txn_script("two", self.increments([1, 2]))
        report = analyze_transaction_workload([first, second])
        assert not find(report.findings, "C001")
        assert not report.cycles

    def test_unbounded_self_pair_triggers(self):
        # Parameters are unbounded: two concurrent instances may collide
        # on the same rows in either order.
        sql = (
            "-- pragma: sequenced\n"
            "BEGIN;\n"
            "UPDATE t SET v = v + 1 WHERE id = ?;\n"
            "UPDATE t SET v = v + 1 WHERE id = ?;\n"
            "COMMIT"
        )
        findings = analyze_transaction_sql(sql)
        (finding,) = find(findings, "C001")
        assert "two concurrent instances" in finding.message
        assert finding.node_path == "pair[script,script]"

    def test_autocommit_statements_cannot_deadlock(self):
        # The same two updates without BEGIN..COMMIT: autocommit acquires
        # non-parking (fail fast), so no hold-and-wait is possible.
        sql = (
            "-- pragma: sequenced\n"
            "UPDATE t SET v = v + 1 WHERE id = ?;\n"
            "UPDATE t SET v = v + 1 WHERE id = ?"
        )
        assert not find(analyze_transaction_sql(sql), "C001")

    def test_coheld_table_locks_are_not_an_inversion(self):
        # Two instances both INSERT into t first: the two table-X locks
        # can never be held at once, so no cycle can start there.
        sql = (
            "-- pragma: sequenced\n"
            "BEGIN;\n"
            "INSERT INTO t VALUES (3, 30);\n"
            "INSERT INTO t VALUES (4, 40);\n"
            "COMMIT"
        )
        assert not find(analyze_transaction_sql(sql), "C001")

    def test_opposite_table_order_inserts_trigger(self):
        first = parse_txn_script(
            "tu",
            "BEGIN; INSERT INTO t VALUES (3, 1); "
            "INSERT INTO u VALUES (3, 1); COMMIT",
            sequenced=True,
        )
        second = parse_txn_script(
            "ut",
            "BEGIN; INSERT INTO u VALUES (4, 1); "
            "INSERT INTO t VALUES (4, 1); COMMIT",
            sequenced=True,
        )
        report = analyze_transaction_workload([first, second])
        findings = find(report.findings, "C001")
        assert any("tu" in f.node_path and "ut" in f.node_path for f in findings)
        assert any(cycle.tables == ("t", "u") for cycle in report.cycles)


class TestC002Idempotence:
    def test_self_referential_update_triggers(self):
        findings = analyze_transaction_sql("UPDATE t SET v = v + 1 WHERE id = 1")
        (finding,) = find(findings, "C002")
        assert finding.severity is Severity.ERROR
        assert "non-idempotent UPDATE" in finding.message

    def test_constant_update_is_clean(self):
        findings = analyze_transaction_sql("UPDATE t SET v = 5 WHERE id = 1")
        assert not find(findings, "C002")

    def test_reading_an_unassigned_column_is_clean(self):
        findings = analyze_transaction_sql("UPDATE t SET v = id + 1 WHERE id = 1")
        assert not find(findings, "C002")

    def test_sequenced_pragma_suppresses(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\nUPDATE t SET v = v + 1 WHERE id = 1"
        )
        assert not find(findings, "C002")

    def test_insert_into_keyless_table_triggers(self, db):
        findings = analyze_transaction_sql(
            "INSERT INTO nokey VALUES (1)", database=db
        )
        (finding,) = find(findings, "C002")
        assert "no primary key" in finding.message

    def test_insert_omitting_the_key_triggers(self, db):
        findings = analyze_transaction_sql(
            "INSERT INTO t (v) VALUES (1)", database=db
        )
        (finding,) = find(findings, "C002")
        assert "omits the primary key" in finding.message

    def test_keyed_insert_is_clean(self, db):
        findings = analyze_transaction_sql(
            "INSERT INTO t VALUES (9, 1)", database=db
        )
        assert not find(findings, "C002")

    def test_insert_without_catalog_gets_benefit_of_the_doubt(self):
        findings = analyze_transaction_sql("INSERT INTO nokey VALUES (1)")
        assert not find(findings, "C002")


class TestReadOnlySegments:
    """A READ ONLY transaction reads a snapshot without locks, so its
    statements have the empty footprint: no edge, no cycle."""

    SELECTS = "SELECT v FROM t WHERE id = 1; SELECT COUNT(*) FROM t;"
    WRITER = "BEGIN; UPDATE t SET v = 1 WHERE id = 1; COMMIT"

    def edges(self, reader_text):
        reader = parse_txn_script("reader", reader_text)
        writer = parse_txn_script("writer", self.WRITER, sequenced=True)
        return analyze_transaction_workload([reader, writer]).conflict_edges

    def test_plain_transaction_selects_conflict_with_a_writer(self):
        edges = self.edges(f"BEGIN; {self.SELECTS} COMMIT")
        assert ("reader", "writer", "t") in edges

    def test_read_only_selects_have_no_edge_to_a_writer(self):
        text = f"BEGIN TRANSACTION READ ONLY; {self.SELECTS} COMMIT"
        assert all(
            not stmt.footprint
            for stmt in parse_txn_script("reader", text).statements
        )
        edges = self.edges(text)
        assert not [edge for edge in edges if "reader" in edge[:2]]

    def test_footprints_resume_after_the_read_only_commit(self):
        script = parse_txn_script(
            "s",
            "BEGIN TRANSACTION READ ONLY; SELECT v FROM t; COMMIT;"
            " SELECT v FROM u",
        )
        assert [bool(stmt.footprint) for stmt in script.statements] == [
            False, False, False, True
        ]


class TestWorkloadReport:
    def test_script_findings_carry_script_prefix(self):
        script = parse_txn_script("inc", "UPDATE t SET v = v + 1 WHERE id = 1")
        report = analyze_transaction_workload([script])
        (finding,) = find(report.findings, "C002")
        assert finding.node_path.startswith("script[inc].")

    def test_conflict_edges_are_deduplicated_and_sorted(self):
        reader = parse_txn_script("read", "SELECT v FROM t WHERE id = 1")
        writer = parse_txn_script(
            "write", "UPDATE t SET v = 1 WHERE id = 1", sequenced=True
        )
        report = analyze_transaction_workload([reader, writer])
        assert ("read", "write", "t") in report.conflict_edges
        assert report.conflict_edges == sorted(set(report.conflict_edges))

    def test_base_rules_run_per_statement(self):
        # The single-statement analyzer still applies inside scripts.
        script = parse_txn_script(
            "point", "SELECT v FROM t WHERE id = ?", sequenced=True
        )
        report = analyze_transaction_workload([script])
        (finding,) = find(report.findings, "W001")
        assert finding.node_path.startswith("script[point].stmt[0].")
