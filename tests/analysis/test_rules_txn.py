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
        assert explicit.explicit and explicit.committed
        assert [s.index for s in explicit.statements] == [1]
        assert explicit.end == 2
        assert not autocommit.explicit
        assert [s.index for s in autocommit.statements] == [3]

    def test_unterminated_transaction_has_no_end(self):
        script = parse_txn_script("s", "BEGIN; UPDATE t SET v = 1 WHERE id = 1")
        (segment,) = script.segments
        assert segment.explicit
        assert segment.end is None and not segment.committed

    def test_rollback_terminates_uncommitted(self):
        script = parse_txn_script(
            "s", "BEGIN; UPDATE t SET v = 1 WHERE id = 1; ROLLBACK"
        )
        (segment,) = script.segments
        assert segment.explicit and not segment.committed
        assert segment.end == 2

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


class TestC003HeldRoundTrips:
    def test_early_x_lock_triggers_with_wan_cost(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            "BEGIN; UPDATE t SET v = 1 WHERE id = 1; "
            "SELECT v FROM u WHERE id = 1; COMMIT"
        )
        (finding,) = find(findings, "C003")
        assert finding.severity is Severity.WARNING
        assert "2 further client round trips" in finding.message
        assert "~0.6 s" in finding.message

    def test_late_x_lock_is_clean(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            "BEGIN; SELECT v FROM u WHERE id = 1; "
            "UPDATE t SET v = 1 WHERE id = 1; COMMIT"
        )
        assert not find(findings, "C003")

    def test_autocommit_holds_nothing_across_trips(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            "UPDATE t SET v = 1 WHERE id = 1;\n"
            "SELECT v FROM u WHERE id = 1;\n"
            "SELECT v FROM u WHERE id = 2"
        )
        assert not find(findings, "C003")


class TestC004Escalation:
    LONG_TAIL = (
        "SELECT v FROM t WHERE id = 1; "
        "SELECT v FROM t WHERE id = 2; "
        "SELECT v FROM u WHERE id = 1; "
    )

    def test_table_x_in_long_transaction_triggers(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            f"BEGIN; {self.LONG_TAIL} INSERT INTO u VALUES (9, 1); COMMIT"
        )
        (finding,) = find(findings, "C004")
        assert finding.severity is Severity.WARNING
        assert "4-statement" in finding.message

    def test_whole_table_update_in_long_transaction_triggers(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            f"BEGIN; {self.LONG_TAIL} UPDATE u SET v = 0; COMMIT"
        )
        assert find(findings, "C004")

    def test_short_transaction_is_clean(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            "BEGIN; SELECT v FROM t WHERE id = 1; "
            "INSERT INTO u VALUES (9, 1); COMMIT"
        )
        assert not find(findings, "C004")

    def test_long_row_level_transaction_is_clean(self):
        findings = analyze_transaction_sql(
            "-- pragma: sequenced\n"
            f"BEGIN; {self.LONG_TAIL} UPDATE u SET v = 0 WHERE id = 1; COMMIT"
        )
        assert not find(findings, "C004")


class TestC005Ddl:
    def test_ddl_inside_transaction_is_error(self):
        findings = analyze_transaction_sql(
            "BEGIN; CREATE TABLE w (id INTEGER PRIMARY KEY); COMMIT"
        )
        (finding,) = find(findings, "C005")
        assert finding.severity is Severity.ERROR

    def test_ddl_mixed_into_script_is_warning(self):
        findings = analyze_transaction_sql(
            "CREATE INDEX t_v ON t (v); SELECT v FROM t WHERE id = 1"
        )
        (finding,) = find(findings, "C005")
        assert finding.severity is Severity.WARNING

    def test_lone_ddl_script_is_clean(self):
        findings = analyze_transaction_sql(
            "CREATE TABLE w (id INTEGER PRIMARY KEY)"
        )
        assert not find(findings, "C005")


class TestC006UndeclaredReadOnly:
    def test_multi_select_script_without_declaration_warns(self):
        findings = analyze_transaction_sql(
            "SELECT v FROM t WHERE id = 1; SELECT COUNT(*) FROM u"
        )
        (finding,) = find(findings, "C006")
        assert finding.severity is Severity.WARNING
        assert "READ ONLY" in finding.message
        assert finding.node_path == "stmt[0]"

    def test_declared_read_only_is_clean(self):
        findings = analyze_transaction_sql(
            "BEGIN TRANSACTION READ ONLY;"
            " SELECT v FROM t WHERE id = 1;"
            " SELECT COUNT(*) FROM u;"
            " COMMIT"
        )
        assert not find(findings, "C006")

    def test_selects_in_a_plain_transaction_still_warn(self):
        findings = analyze_transaction_sql(
            "BEGIN; SELECT v FROM t WHERE id = 1;"
            " SELECT COUNT(*) FROM u; COMMIT"
        )
        (finding,) = find(findings, "C006")
        assert finding.severity is Severity.WARNING

    def test_single_select_is_clean(self):
        findings = analyze_transaction_sql("SELECT v FROM t WHERE id = 1")
        assert not find(findings, "C006")

    def test_any_dml_makes_the_script_exempt(self):
        findings = analyze_transaction_sql(
            "SELECT v FROM t WHERE id = 1;"
            " UPDATE u SET v = 1 WHERE id = 1"
        )
        assert not find(findings, "C006")

    def test_message_names_the_lock_footprint(self):
        findings = analyze_transaction_sql(
            "SELECT v FROM t WHERE id = 1; SELECT COUNT(*) FROM u"
        )
        (finding,) = find(findings, "C006")
        assert "S on table 't'" in finding.message
        assert "S on table 'u'" in finding.message


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
            "inlist",
            "SELECT v FROM t WHERE id IN (?, ?, ?)",
            sequenced=True,
        )
        report = analyze_transaction_workload([script])
        (finding,) = find(report.findings, "P003")
        assert finding.node_path.startswith("script[inlist].stmt[0].")

