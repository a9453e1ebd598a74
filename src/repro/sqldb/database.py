"""The :class:`Database` facade: parse, plan (with caching), execute.

This is the "relational DBMS" the PDM system sits on.  The facade keeps an
LRU plan cache keyed by statement text, so the navigational workload —
thousands of executions of the same parameterised child-fetch query — pays
the parse/plan cost once, mirroring the prepared-statement behaviour of a
production DBMS.  INSERT/UPDATE/DELETE are prepared the same way and live
in the same cache; UPDATE and DELETE locate their rows through the
planner's access paths, so a write costs what it changes.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    CatalogError,
    DeadlockError,
    ExecutionError,
    IntegrityError,
    LockTimeout,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb import ast_walk
from repro.sqldb.executor import ExecutionEnv, unbound_parameter
from repro.sqldb.expressions import (
    CompileContext,
    Frame,
    Scope,
    compile_expression,
)
from repro.sqldb.functions import FunctionRegistry
from repro.sqldb.mvcc import MvccManager
from repro.sqldb.parser import parse_script, parse_statement
from repro.sqldb.planner import Plan, Planner
from repro.sqldb.recursive import run_plan
from repro.sqldb.result import ResultSet
from repro.sqldb.schema import Catalog, Column, TableSchema
from repro.sqldb.stats import StatsCatalog
from repro.sqldb.storage import TableStorage
from repro.sqldb.types import converter


class _Transaction:
    """One open transaction: its undo logs, keyed by the session that
    owns it (``None`` is the local/legacy default session)."""

    __slots__ = ("session", "txn_id", "storages", "logs", "read_only", "snapshot")

    def __init__(self, session: Hashable, txn_id: int, read_only: bool = False) -> None:
        self.session = session
        self.txn_id = txn_id
        #: Storages in first-enlist order (rollback replays in reverse).
        self.storages: list = []
        #: id(storage) -> that storage's undo entries for this transaction.
        self.logs: Dict[int, list] = {}
        #: READ ONLY transactions reject DML and read a snapshot instead
        #: of taking shared locks.
        self.read_only = read_only
        #: The :class:`repro.sqldb.mvcc.Snapshot` captured at BEGIN for a
        #: read-only transaction; None otherwise.
        self.snapshot = None

    def log_for(self, storage) -> list:
        log = self.logs.get(id(storage))
        if log is None:
            log = self.logs[id(storage)] = []
            self.storages.append(storage)
        return log

    def writes(self) -> list:
        """``(storage, undo entries)`` for every storage this transaction
        changed: what it must undo, and what its versions are built from."""
        return [
            (storage, self.logs[id(storage)])
            for storage in self.storages
            if self.logs[id(storage)]
        ]


class Database:
    """An in-memory SQL database.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20))")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    >>> db.execute("SELECT name FROM t WHERE id = ?", [2]).scalar()
    'two'
    """

    def __init__(
        self,
        plan_cache_size: int = 512,
        recursion_limit: int = 1_000_000,
        auto_analyze_threshold: int = 256,
    ) -> None:
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.recursion_limit = recursion_limit
        #: ANALYZE-collected optimizer statistics; the planner prices access
        #: paths and join orders for the tables that have them and keeps its
        #: deterministic rules for the rest.  In-memory and advisory
        #: only: never WAL-logged (lost on crash/recovery) because losing
        #: them can only change plan quality, not results.
        self.stats = StatsCatalog()
        #: Statement-text -> :class:`Plan` (SELECT) or :class:`_PreparedDml`
        #: (INSERT/UPDATE/DELETE) cache: one LRU, one set of invalidations.
        self._plan_cache: "OrderedDict[str, Union[Plan, _PreparedDml]]" = (
            OrderedDict()
        )
        self._plan_cache_size = plan_cache_size
        #: Counters a server can report: statements executed, cache hits.
        self.statistics = {
            "statements": 0,
            "plan_cache_hits": 0,
            "rows_returned": 0,
            "columnar_statements": 0,
            "columnar_fallbacks": 0,
            "snapshot_reads": 0,
            "versions_created": 0,
            "versions_gc": 0,
            "readonly_txns": 0,
            "auto_analyze": 0,
        }
        #: Snapshot reads (DESIGN §14): commit clock, open snapshots and,
        #: only while one is open, the version chains it reads.
        self.mvcc = MvccManager(self.statistics)
        #: Re-ANALYZE a table before planning when its storage ``version``
        #: drifted this far past the version the statistics were collected
        #: at.  Only tables that *have* statistics re-collect — a never-
        #: ANALYZEd database stays statistics-free (and deterministic).
        #: <= 0 disables the trigger.
        self.auto_analyze_threshold = auto_analyze_threshold
        #: Which operator set ran the most recent SELECT: ``"columnar"``
        #: when the whole plan vectorizes, else ``"row (columnar fallback:
        #: <reason>)"``.  None until a SELECT has run (DML resets it).
        self.last_executor: Optional[str] = None
        #: Ablation switch threaded into every execution environment
        #: (paper Section 5.3.1 — uncorrelated subquery caching).
        self.enable_subquery_cache = True
        #: Ablation switch: semi-naive (True) vs naive recursive fixpoint.
        self.enable_seminaive = True
        #: name (lower) -> ast.CreateView records, expanded at plan time.
        self.views: dict = {}
        #: Counters of the most recent execution (rows scanned, index
        #: probes, subquery executions) — the input to a server-side CPU
        #: cost model.
        self.last_counters: dict = {}
        #: session token -> open :class:`_Transaction`.  Token ``None`` is
        #: the local default session (the legacy single-transaction API);
        #: a server maps each wire session to its client id.
        self._transactions: Dict[Hashable, _Transaction] = {}
        #: Monotonic transaction ids when no lock manager issues them
        #: (larger id = younger transaction).
        self._txn_seq = 0
        #: Session the currently executing statement belongs to.
        self._current_session: Hashable = None
        #: Sessions whose transaction was force-aborted (deadlock victim,
        #: lock timeout) -> reason; surfaced as :class:`DeadlockError` on
        #: the session's next statement or commit.
        self._aborted: Dict[Hashable, str] = {}
        #: Optional :class:`repro.concurrency.LockManager` enforcing
        #: strict 2PL across sessions (see :meth:`attach_lock_manager`).
        self.locks = None
        #: Optional :class:`repro.obs.TraceRecorder`; when set, every
        #: :meth:`execute` opens a ``db.execute`` span and the executor
        #: environment carries the recorder down to the fixpoint loop.
        self.recorder = None
        #: Optional :class:`repro.recovery.WalWriter` (see
        #: :meth:`attach_wal`); None keeps the database purely in-memory.
        self.wal = None
        #: WAL transaction id of the statement currently executing (set by
        #: :meth:`_run_writes`); the storage journal sinks stamp it onto
        #: every logged operation.
        self._wal_txn_id: Optional[int] = None
        #: Implicit (autocommit) WAL transaction ids are drawn from a
        #: disjoint high range so they can never collide with explicit
        #: transaction ids and merge in the log.
        self._implicit_txn_seq = 0

    # -- public API -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        session: Hashable = None,
    ) -> ResultSet:
        """Parse, plan and execute a single statement.

        *session* selects which open transaction (if any) the statement
        runs in; ``None`` is the local default session.  A statement on a
        session whose transaction was force-aborted (deadlock victim)
        raises :class:`DeadlockError` so the owner learns about the abort
        and can restart.
        """
        previous = self._current_session
        self._current_session = session
        try:
            self._check_aborted(session)
            recorder = self.recorder
            if recorder is None:
                return self._execute(sql, params)
            with recorder.span(
                "db.execute",
                kind="database",
                sql=sql if isinstance(sql, str) else type(sql).__name__,
            ) as span:
                result = self._execute(sql, params, span)
                span.meta["rows"] = len(result.rows)
                if self.last_executor is not None:
                    span.meta["executor"] = self.last_executor
                return result
        finally:
            self._current_session = previous

    def _execute(self, sql: str, params: Sequence[Any], span=None) -> ResultSet:
        self.statistics["statements"] += 1
        #: A DML statement scans nothing through the executor counters, so
        #: reset here — a server CPU model must never be charged for a
        #: previous statement's stale scan counts.
        self.last_counters = {}
        self.last_executor = None
        statement = None
        if isinstance(sql, str):
            cached = self._plan_cache.get(sql)
            # Only a SELECT refreshes drifted statistics: a writer must not
            # start taking the table-S locks ANALYZE needs.
            if cached is not None and not (
                isinstance(cached, Plan) and self._auto_analyze(cached.tables)
            ):
                self.statistics["plan_cache_hits"] += 1
                self._plan_cache.move_to_end(sql)
                if span is not None:
                    span.meta["plan_cache_hit"] = True
                if isinstance(cached, Plan):
                    return self._run_select(cached, params)
                return self._run_dml(cached, params)
            # A refreshed statistics catalog emptied the plan cache: fall
            # through and re-plan under the new estimates.
            statement = parse_statement(sql)
        else:
            statement = sql  # pre-parsed AST, used by the server fast path
        if isinstance(statement, ast.SelectStatement):
            self._auto_analyze(self._referenced_tables(statement))
            plan = self._plan(statement)
            if isinstance(sql, str):
                self._remember_plan(sql, plan)
            return self._run_select(plan, params)
        if isinstance(sql, str) and isinstance(statement, self._DML_STATEMENTS):
            return self._write(statement, params, sql)
        return self._execute_dml(statement, params)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> int:
        """Execute a parameterised statement once per parameter row; return
        the total number of affected rows.

        Parses and prepares once.  Each parameter row is still one
        statement, exactly as if :meth:`execute` ran it: outside a
        transaction it autocommits on its own — its own implicit WAL
        transaction and commit record, one tick of the commit clock, and
        versions for an open snapshot — so an error at row *k* raises with
        the rows before *k* committed.  Inside a transaction every row logs
        to that transaction.  Only what no row can change is done once per
        call: the read-only check, the transaction lookup, and the lock
        scope and footprint (no other statement runs between two rows).
        This is the bulk-load path a scenario database is generated
        through.
        """
        self._check_aborted(self._current_session)
        statement = parse_statement(sql)
        if not isinstance(statement, self._DML_STATEMENTS):
            return sum(
                self._execute_dml(statement, params).rowcount for params in rows
            )
        self._reject_in_read_only(statement)  # before any planning
        return self._run_writes(self._prepare_dml(statement), rows)

    def execute_script(self, sql: str) -> None:
        """Execute a ``;``-separated script (DDL bootstrap)."""
        for statement in parse_script(sql):
            if isinstance(statement, ast.SelectStatement):
                plan = self._plan(statement)
                self._run_select(plan, ())
            else:
                self._execute_dml(statement, ())

    def register_function(self, name: str, function, propagate_null: bool = True) -> None:
        """Register a stored scalar function callable from SQL (SQL/PSM
        stand-in; see :mod:`repro.sqldb.functions`)."""
        self.functions.register(name, function, propagate_null=propagate_null)
        # Plans compile function calls through the registry at run time, so
        # cached plans remain valid after (re)registration.

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    def view_names(self) -> List[str]:
        return sorted(view.name for view in self.views.values())

    def table_rowcount(self, name: str) -> int:
        return len(self.catalog.lookup(name).storage)

    def explain(self, sql: str) -> ResultSet:
        """Return the physical plan of a SELECT statement as text rows."""
        return self.execute(f"EXPLAIN {sql}")

    def plan_statement(self, statement) -> Plan:
        """Plan a SELECT — or the target-row lookup of an UPDATE/DELETE —
        without executing or caching it.

        ``EXPLAIN`` renders this plan; it is public so that tests and
        the perfbench stage costs can time and inspect planning alone.
        Planning touches only the catalog, never table data.
        """
        if isinstance(statement, (ast.Update, ast.Delete)):
            return self._prepare_modify(statement).plan
        return self._plan(statement)

    # -- transactions ------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether the local default session has an open transaction."""
        return None in self._transactions

    def session_in_transaction(self, session: Hashable = None) -> bool:
        return session in self._transactions

    def attach_lock_manager(self, manager) -> None:
        """Enforce strict 2PL with *manager* (a
        :class:`repro.concurrency.LockManager`): SELECTs take table-level
        shared locks, DML takes row/table exclusive locks, all released
        at commit/rollback.  The manager's deadlock victims are aborted
        through :meth:`_abort_txn`."""
        self.locks = manager
        manager.abort_callback = self._abort_txn

    #: Base of the implicit-transaction id range (see ``_implicit_txn_seq``).
    _IMPLICIT_TXN_BASE = 1 << 32

    def attach_wal(self, writer) -> None:
        """Make every mutation durable through *writer* (a
        :class:`repro.recovery.WalWriter`).

        Hooks a journal sink onto every table's storage (tables created
        later get theirs in :meth:`_create_table`): before each insert,
        update or delete changes memory — after its constraints are
        checked — the sink appends a redo record under the executing
        statement's WAL transaction id.  Explicit transactions
        log COMMIT/ABORT from :meth:`commit`/:meth:`rollback`; autocommit
        statements run as implicit single-statement transactions committed
        at statement end.
        """
        self.wal = writer
        for name in self.catalog.table_names():
            self._attach_journal(self.catalog.lookup(name).storage)

    def _attach_journal(self, storage) -> None:
        table = storage.schema.name

        def sink(op: str, row_id: int, row, old_row=None) -> None:
            wal = self.wal
            txn_id = self._wal_txn_id
            if wal is None or txn_id is None:
                return
            if op == "insert":
                wal.log_insert(txn_id, table, row_id, row)
            elif op == "update":
                wal.log_update(txn_id, table, row_id, old_row, row)
            else:
                wal.log_delete(txn_id, table, row_id)

        storage._journal = sink

    def begin(self, session: Hashable = None, read_only: bool = False) -> int:
        """Start a transaction on *session* (DML becomes undoable until
        commit); returns the transaction id.

        ``read_only=True`` (``BEGIN READ ONLY``) rejects DML for the
        transaction's lifetime and captures a
        :class:`repro.sqldb.mvcc.Snapshot`: every SELECT inside the
        transaction reads that snapshot without taking locks.
        """
        self._check_aborted(session)
        if session in self._transactions:
            raise ExecutionError("a transaction is already active")
        if self.locks is not None:
            txn_id = self.locks.begin(owner=session)
        else:
            self._txn_seq += 1
            txn_id = self._txn_seq
        txn = _Transaction(session, txn_id, read_only=read_only)
        if read_only:
            self.statistics["readonly_txns"] += 1
            txn.snapshot = self.mvcc.open_snapshot(
                written
                for other in self._transactions.values()
                for written in other.writes()
            )
        self._transactions[session] = txn
        return txn_id

    def commit(self, session: Hashable = None) -> None:
        """Make the session's transaction permanent."""
        self._check_aborted(session)
        txn = self._transactions.pop(session, None)
        if txn is None:
            raise ExecutionError("no transaction is active")
        for storage in txn.storages:
            # Detach only if this transaction's log is still the one
            # attached — another session's statement may have re-pointed
            # the storage since our last write.
            if storage._undo is txn.logs[id(storage)]:
                storage.detach_undo()
        if self.wal is not None and not txn.read_only:
            # The commit record is the durability point: if the disk dies
            # on this very append (DiskCrashed propagates), the outcome is
            # ambiguous on purpose — exactly like a real commit racing a
            # power cut — and recovery decides by what hit the platter.
            self.wal.commit(txn.txn_id)
        # Versions install only after the commit record is durable, so a
        # crash between the two leaves no committed-but-unlogged version
        # for a snapshot to see after recovery.
        if txn.snapshot is not None:
            self.mvcc.close_snapshot(txn.snapshot)
        else:
            writes = txn.writes()
            if writes:
                self.mvcc.commit(writes)
        if self.locks is not None:
            self.locks.release_all(txn.txn_id)

    def rollback(self, session: Hashable = None) -> None:
        """Undo every change the session's transaction made.

        Rolling back a session whose transaction was already force-aborted
        (deadlock victim) is a no-op success — the work is already undone
        and the client is merely acknowledging the abort.
        """
        if self._aborted.pop(session, None) is not None:
            return
        txn = self._transactions.pop(session, None)
        if txn is None:
            raise ExecutionError("no transaction is active")
        self._rollback_txn(txn)

    def transaction(self, session: Hashable = None):
        """Context manager: commit on success, roll back on exception.

        >>> db = Database()
        >>> _ = db.execute("CREATE TABLE t (v INTEGER)")
        >>> with db.transaction():
        ...     _ = db.execute("INSERT INTO t VALUES (1)")
        >>> db.table_rowcount("t")
        1
        """
        return _TransactionContext(self, session)

    def _rollback_txn(self, txn: _Transaction) -> None:
        for storage in reversed(txn.storages):
            storage.rollback_entries(txn.logs[id(storage)])
        if self.wal is not None and not txn.read_only:
            self.wal.abort(txn.txn_id)
        if txn.snapshot is not None:
            self.mvcc.close_snapshot(txn.snapshot)
        else:
            self.mvcc.abort(txn.writes())
        if self.locks is not None:
            self.locks.release_all(txn.txn_id)

    def _abort_txn(self, txn_id: int) -> None:
        """Force-abort the transaction with *txn_id* (deadlock victim).

        Called back by the lock manager while some *other* session's
        acquire is in progress; the victim's session learns about it via
        :class:`DeadlockError` on its next statement, commit, or (as a
        no-op) rollback.
        """
        for session, txn in list(self._transactions.items()):
            if txn.txn_id == txn_id:
                del self._transactions[session]
                self._rollback_txn(txn)
                self._aborted[session] = (
                    f"transaction {txn_id} was aborted as a deadlock victim; "
                    f"restart the transaction"
                )
                return

    def _check_aborted(self, session: Hashable) -> None:
        reason = self._aborted.pop(session, None)
        if reason is not None:
            raise DeadlockError(reason)

    def _current_snapshot(self):
        """The executing session's snapshot, when it is a read-only
        transaction; else None (locking reads of the live heap)."""
        txn = self._transactions.get(self._current_session)
        if txn is None:
            return None
        return txn.snapshot

    # -- locking ------------------------------------------------------------------

    @contextmanager
    def _lock_scope(self):
        """Lock-owner scope of one statement.

        Inside a transaction, locks attach to it and live until
        commit/rollback (strict 2PL).  Autocommit statements get an
        ephemeral owner released at statement end; their conflicts fail
        fast (``park=False``) because there is no transaction to keep a
        queue position for.  Yields ``(owner_id, parkable)`` or
        ``(None, False)`` when no lock manager is attached.
        """
        if self.locks is None:
            yield None, False
            return
        txn = self._transactions.get(self._current_session)
        if txn is not None:
            yield txn.txn_id, True
            return
        owner = self.locks.begin(owner="autocommit")
        try:
            yield owner, False
        finally:
            self.locks.release_all(owner)

    def _acquire_lock(self, owner, parkable, table, row_id, mode) -> None:
        if owner is None:
            return
        try:
            self.locks.acquire(owner, table, row_id, mode, park=parkable)
        except (DeadlockError, LockTimeout):
            # This session is the victim: its transaction (if any) is
            # rolled back here so the raised error leaves a clean slate.
            txn = self._transactions.pop(self._current_session, None)
            if txn is not None:
                self._rollback_txn(txn)
            raise

    def _acquire_footprint(self, owner, parkable, requests) -> None:
        """Acquire the table-granularity part of a static lock footprint
        (see :mod:`repro.concurrency.footprint`, the shared source of
        truth with the transaction analyzer).  ROWS-granularity requests
        are bound to actual row ids by :meth:`_acquire_row_locks` once
        the matching rows are known."""
        from repro.concurrency.footprint import Granularity  # local: avoid cycle

        for request in requests:
            if request.granularity is Granularity.TABLE:
                self._acquire_lock(
                    owner, parkable, request.table, None, request.mode
                )

    def _acquire_row_locks(self, owner, parkable, requests, row_ids) -> None:
        """Bind every ROWS-granularity request of a footprint to the
        matched *row_ids*, acquiring one row lock per row *before* the
        first mutation (a conflict aborts with nothing to undo)."""
        from repro.concurrency.footprint import Granularity  # local: avoid cycle

        for request in requests:
            if request.granularity is Granularity.ROWS:
                for row_id in row_ids:
                    self._acquire_lock(
                        owner, parkable, request.table, row_id, request.mode
                    )

    def _lock_tables_shared(self, owner, parkable, tables) -> None:
        from repro.concurrency.footprint import select_footprint  # local: avoid cycle

        self._acquire_footprint(owner, parkable, select_footprint(tables))

    # -- planning / environments -----------------------------------------------

    def _plan(self, statement: ast.SelectStatement) -> Plan:
        from repro.concurrency.footprint import select_footprint  # local: avoid cycle

        plan = self._planner().plan_select(statement)
        plan.tables = self._referenced_tables(statement)
        plan.footprint = select_footprint(plan.tables)
        return plan

    def _referenced_tables(self, statement: ast.SelectStatement) -> Tuple[str, ...]:
        """Base tables *statement* reads, with views expanded to their
        underlying tables (recursively)."""
        names: set = set()
        pending = list(ast_walk.referenced_tables(statement))
        seen: set = set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            view = self.views.get(name)
            if view is not None:
                pending.extend(ast_walk.referenced_tables(view.select))
            else:
                names.add(name)
        return tuple(sorted(names))

    def _remember_plan(self, sql: str, plan: Plan) -> None:
        self._plan_cache[sql] = plan
        if len(self._plan_cache) > self._plan_cache_size:
            self._plan_cache.popitem(last=False)

    def _environment(self, params: Sequence[Any]) -> ExecutionEnv:
        env = ExecutionEnv(
            params=params,
            functions=self.functions,
            recursion_limit=self.recursion_limit,
        )
        env.enable_subquery_cache = self.enable_subquery_cache
        env.enable_seminaive = self.enable_seminaive
        env.recorder = self.recorder
        env.snapshot = self._current_snapshot()
        return env

    def _run_select(self, plan: Plan, params: Sequence[Any]) -> ResultSet:
        env = self._environment(params)
        if env.snapshot is not None:
            # Snapshot read: visibility replaces shared locks entirely —
            # no lock scope, no waits, no deadlock exposure.
            self.statistics["snapshot_reads"] += 1
            rows = self._run_plan(plan, env)
        elif self.locks is None:
            rows = self._run_plan(plan, env)
        else:
            with self._lock_scope() as (owner, parkable):
                self._acquire_footprint(owner, parkable, plan.footprint)
                rows = self._run_plan(plan, env)
        self.statistics["rows_returned"] += len(rows)
        self.last_counters = dict(env.counters)
        return ResultSet(plan.output_names, rows)

    def _run_plan(self, plan: Plan, env: ExecutionEnv) -> List[Tuple[Any, ...]]:
        """Run *plan* and account which operator bodies it ran on — also
        when it fails part-way."""
        try:
            return run_plan(plan, env)
        finally:
            executor = self.last_executor = env.executor
            if executor == "columnar":
                self.statistics["columnar_statements"] += 1
            else:
                self.statistics["columnar_fallbacks"] += 1

    # -- DML / DDL ----------------------------------------------------------------

    #: Statement types whose effects (catalog mutations, index builds)
    #: the undo log cannot reverse — rejected inside any transaction.
    _DDL_STATEMENTS = (
        ast.CreateTable,
        ast.CreateIndex,
        ast.DropTable,
        ast.CreateView,
        ast.DropView,
    )

    #: Statement types that are prepared once and kept in the plan cache.
    _DML_STATEMENTS = (ast.Insert, ast.Update, ast.Delete)

    def _execute_dml(self, statement, params: Sequence[Any]) -> ResultSet:
        if isinstance(statement, self._DDL_STATEMENTS):
            return self._execute_ddl(statement)
        if isinstance(statement, self._DML_STATEMENTS):
            return self._write(statement, params)
        if isinstance(statement, ast.BeginTransaction):
            self.begin(self._current_session, read_only=statement.read_only)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.CommitTransaction):
            self.commit(self._current_session)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.RollbackTransaction):
            self.rollback(self._current_session)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, ast.Explain):
            from repro.sqldb.explain import explain_analyze_plan, explain_plan

            if isinstance(statement.statement, ast.SelectStatement):
                self._auto_analyze(self._referenced_tables(statement.statement))
            elif statement.analyze:
                raise ExecutionError(
                    "EXPLAIN ANALYZE would execute the write; use plain "
                    "EXPLAIN for UPDATE and DELETE"
                )
            plan = self.plan_statement(statement.statement)
            if statement.analyze:
                # EXPLAIN ANALYZE plans are never cached, so the operator
                # instances are fresh and safe to instrument in place.
                env = self._environment(params)
                lines = explain_analyze_plan(plan, env)
            else:
                lines = explain_plan(plan)
            return ResultSet(["plan"], [(line,) for line in lines])
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        raise ExecutionError(
            f"unsupported statement type {type(statement).__name__}"
        )

    def _execute_ddl(self, statement) -> ResultSet:
        """Change the catalog, and log the statement re-rendered to SQL
        text (recovery replays it through the ordinary execute path).

        The record is rendered and encoded before the catalog changes, so
        text the log refuses leaves the catalog as it was; it is appended
        after, so a statement the catalog refuses is never logged.  DDL
        is rejected inside transactions, so a logged statement is durable
        the moment it succeeds."""
        if self.session_in_transaction(self._current_session):
            raise ExecutionError(
                f"DDL ({type(statement).__name__}) is not allowed inside a "
                f"transaction: catalog changes are not covered by the undo "
                f"log and could not be rolled back"
            )
        record = None
        if self.wal is not None:
            from repro.sqldb.render import render_statement

            record = self.wal.ddl_record(render_statement(statement))
        if isinstance(statement, ast.CreateTable):
            self._create_table(statement)
        elif isinstance(statement, ast.CreateIndex):
            entry = self.catalog.lookup(statement.table)
            entry.storage.create_index(
                statement.name, statement.columns, unique=statement.unique
            )
            # Statements planned before the index existed must see it.
            self._plan_cache.clear()
        elif isinstance(statement, ast.DropTable):
            self.mvcc.forget(self.catalog.lookup(statement.name).storage)
            self.catalog.drop(statement.name)
            self.stats.drop(statement.name)
            self._plan_cache.clear()
        elif isinstance(statement, ast.CreateView):
            self._create_view(statement)
        else:  # DropView
            key = statement.name.lower()
            if key not in self.views:
                raise CatalogError(f"view {statement.name!r} does not exist")
            del self.views[key]
            self._plan_cache.clear()
        if record is not None:
            self.wal.log_ddl(record)
        return ResultSet([], [], rowcount=0)

    def _analyze(self, statement: ast.Analyze) -> ResultSet:
        """``ANALYZE [table]`` — collect optimizer statistics.

        Deliberately not DDL: it changes no data and no schema, so it is
        allowed inside transactions and is never WAL-logged.  Cached plans
        were chosen under the old statistics, so the plan cache is
        cleared.
        """
        if statement.table is not None:
            entries = [self.catalog.lookup(statement.table)]
        else:
            entries = [
                self.catalog.lookup(name)
                for name in sorted(self.catalog.table_names(), key=str.lower)
            ]
        rows: List[tuple] = []
        with self._lock_scope() as (owner, parkable):
            self._lock_tables_shared(
                owner, parkable, tuple(entry.schema.name for entry in entries)
            )
            for entry in entries:
                table_stats = self.stats.analyze_table(entry.schema, entry.storage)
                rows.append(
                    (
                        entry.schema.name,
                        table_stats.row_count,
                        len(table_stats.columns),
                    )
                )
        self._plan_cache.clear()
        return ResultSet(["table", "rows", "columns"], rows)

    def _auto_analyze(self, tables: Tuple[str, ...]) -> bool:
        """Refresh statistics of any of *tables* whose storage drifted
        ``auto_analyze_threshold`` mutations past its last ANALYZE.

        Only tables that already have statistics qualify — the trigger
        keeps estimates fresh, it never introduces them — so a database
        that was never ANALYZEd (e.g. the deterministic contention sims)
        is entirely unaffected.  Returns True when anything re-collected
        (the plan cache was cleared: callers holding a cached plan must
        re-plan).  Skipped under a snapshot read, which must stay
        lock-free.
        """
        threshold = self.auto_analyze_threshold
        if threshold <= 0 or self._current_snapshot() is not None:
            return False
        stale = []
        for name in tables:
            table_stats = self.stats.get(name)
            if table_stats is None or not self.catalog.exists(name):
                continue
            entry = self.catalog.lookup(name)
            if entry.storage.version - table_stats.version >= threshold:
                stale.append(entry)
        if not stale:
            return False
        with self._lock_scope() as (owner, parkable):
            self._lock_tables_shared(
                owner, parkable, tuple(entry.schema.name for entry in stale)
            )
            for entry in stale:
                self.stats.analyze_table(entry.schema, entry.storage)
        self.statistics["auto_analyze"] += len(stale)
        self._plan_cache.clear()
        return True

    def _create_view(self, statement: ast.CreateView) -> None:
        key = statement.name.lower()
        if self.catalog.exists(statement.name) or key in self.views:
            raise CatalogError(
                f"a table or view named {statement.name!r} already exists"
            )
        # Validate the definition now (plannable, column arity) so broken
        # views fail at CREATE time, not at first use.
        plan = self._planner().plan_select(statement.select)
        if statement.columns is not None and len(statement.columns) != len(
            plan.output_names
        ):
            raise CatalogError(
                f"view {statement.name!r} declares {len(statement.columns)} "
                f"columns but its query produces {len(plan.output_names)}"
            )
        self.views[key] = statement
        self._plan_cache.clear()

    def _create_table(self, statement: ast.CreateTable) -> None:
        schema = TableSchema(
            name=statement.name,
            columns=[
                Column(
                    name=column.name,
                    sql_type=column.sql_type,
                    not_null=column.not_null,
                    primary_key=column.primary_key,
                )
                for column in statement.columns
            ],
        )
        storage = TableStorage(schema)
        self.catalog.create(schema, storage)
        if self.wal is not None:
            self._attach_journal(storage)
        self.mvcc.register(storage)

    def _planner(self) -> Planner:
        return Planner(
            self.catalog, self.functions, views=self.views, stats=self.stats
        )

    def _reject_in_read_only(self, statement) -> None:
        txn = self._transactions.get(self._current_session)
        if txn is not None and txn.read_only:
            raise ExecutionError(
                f"{type(statement).__name__.upper()} is not allowed "
                f"inside a READ ONLY transaction"
            )

    def _write(
        self, statement, params: Sequence[Any], sql: Optional[str] = None
    ) -> ResultSet:
        """Prepare an INSERT/UPDATE/DELETE — remembering the prepared form
        under its text *sql*, when it came as text — and run it."""
        self._reject_in_read_only(statement)  # before any planning
        prepared = self._prepare_dml(statement)
        if sql is not None:
            self._remember_plan(sql, prepared)
        return self._run_dml(prepared, params)

    def _prepare_dml(self, statement) -> "_PreparedDml":
        """Everything about a DML statement that no parameter value
        changes: target table, lock footprint, access plan, closures."""
        if isinstance(statement, ast.Insert):
            return self._prepare_insert(statement)
        return self._prepare_modify(statement)

    def _footprint(self, statement) -> tuple:
        from repro.concurrency.footprint import statement_footprint  # local: avoid cycle

        return statement_footprint(statement, self._referenced_tables)

    def _prepare_insert(self, statement: ast.Insert) -> "_PreparedInsert":
        entry = self.catalog.lookup(statement.table)
        schema = entry.schema
        if statement.columns is not None:
            positions = [schema.column_index(name) for name in statement.columns]
        else:
            positions = list(range(schema.arity))
        targets = [
            (position, converter(schema.columns[position].sql_type))
            for position in positions
        ]
        select = None
        value_rows: List[list] = []
        needs_env = False
        if statement.rows is None:
            select = self._plan(statement.select)
        else:
            ctx = CompileContext(
                [Frame(Scope([]))], self._reject_subquery, self.functions
            )
            for value_exprs in statement.rows:
                if len(value_exprs) != len(positions):
                    raise IntegrityError(
                        f"INSERT supplies {len(value_exprs)} values for "
                        f"{len(positions)} columns"
                    )
                readers: list = []
                for expr in value_exprs:
                    if isinstance(expr, ast.Parameter):
                        readers.append(expr.index)
                    else:
                        readers.append(compile_expression(expr, ctx))
                        needs_env = needs_env or not isinstance(expr, ast.Literal)
                value_rows.append(readers)
        return _PreparedInsert(
            statement,
            entry,
            self._footprint(statement),
            targets,
            value_rows,
            needs_env,
            select,
        )

    def _prepare_modify(self, statement) -> "_PreparedModify":
        entry = self.catalog.lookup(statement.table)
        assignments = (
            statement.assignments if isinstance(statement, ast.Update) else ()
        )
        positions = [entry.schema.column_index(column) for column, __ in assignments]
        plan, closures = self._planner().plan_dml_target(
            entry, statement.where, [value for __, value in assignments]
        )
        return _PreparedModify(
            statement,
            entry,
            self._footprint(statement),
            plan,
            [
                (position, closure, converter(entry.schema.columns[position].sql_type))
                for position, closure in zip(positions, closures)
            ],
        )

    def _run_dml(self, prepared: "_PreparedDml", params: Sequence[Any]) -> ResultSet:
        return ResultSet([], [], rowcount=self._run_writes(prepared, (params,)))

    def _run_writes(
        self, prepared: "_PreparedDml", param_rows: Iterable[Sequence[Any]]
    ) -> int:
        """Run *prepared* once per parameter row, each run one statement
        (see :meth:`executemany`); return the rows affected."""
        self._reject_in_read_only(prepared.statement)
        storage = prepared.entry.storage
        mvcc = self.mvcc
        wal = self.wal
        txn = self._transactions.get(self._current_session)
        # No statement of another session runs inside this call, so whether
        # a snapshot is open holds for all of it.
        capturing = mvcc.open_snapshots > 0
        # Mutations log their inverses to the executing transaction's log.
        # An autocommit statement has nothing to undo and logs only while
        # a snapshot is open, because the entries are also the pre-images
        # its versions are built from (DESIGN §14) — otherwise it detaches,
        # so its writes are never captured by a stale attached log.
        log = txn.log_for(storage) if txn is not None else None
        run = self._insert if isinstance(prepared, _PreparedInsert) else self._modify
        affected = 0
        with self._lock_scope() as (owner, parkable):
            # An INSERT takes table-level X on its target (which closes the
            # phantom window against scans holding table-level S) and
            # table-level S on INSERT ... SELECT sources; an UPDATE or
            # DELETE adds row locks once it knows its rows.
            self._acquire_footprint(owner, parkable, prepared.requests)
            for params in param_rows:
                if txn is None and capturing:
                    log = []
                storage.attach_undo(log)
                logged = len(log) if log else 0
                version = storage.version
                # The statement's WAL transaction: its transaction's id, or
                # an implicit id committed at statement end — even when the
                # statement raised, because a multi-row autocommit INSERT
                # keeps its pre-error rows in memory and the log must agree
                # with memory.  (After a disk crash the commit append is a
                # silent no-op: the log ends where the power died, and the
                # in-flight implicit transaction is discarded at recovery.)
                if wal is not None:
                    if txn is None:
                        self._implicit_txn_seq += 1
                        self._wal_txn_id = self._IMPLICIT_TXN_BASE + self._implicit_txn_seq
                    else:
                        self._wal_txn_id = txn.txn_id
                try:
                    affected += run(prepared, params, owner, parkable)
                finally:
                    if wal is not None:
                        txn_id = self._wal_txn_id
                        self._wal_txn_id = None
                        if txn is None:
                            wal.commit(txn_id)
                    # Even on error: a partially-applied autocommit INSERT
                    # keeps its pre-error rows, and the version store must
                    # agree with memory.
                    if capturing:
                        mvcc.capture(storage, log[logged:])
                    # After the implicit WAL commit, the same order as
                    # commit(): one clock tick per autocommit statement.
                    if txn is None and storage.version != version:
                        mvcc.commit([(storage, log)] if capturing else ())
        return affected

    def _insert(
        self, prepared: "_PreparedInsert", params: Sequence[Any], owner, parkable
    ) -> int:
        """One INSERT statement: read every source row, then convert and
        insert them one by one."""
        targets = prepared.targets
        if prepared.select is None:
            env = self._environment(params) if prepared.needs_env else None
            bound = len(params)
            source_rows: List[Sequence[Any]] = []
            for readers in prepared.value_rows:
                values = []
                for reader in readers:
                    if reader.__class__ is int:
                        if reader >= bound:
                            raise unbound_parameter(reader, bound)
                        values.append(params[reader])
                    else:
                        values.append(reader((), env))
                source_rows.append(values)
        else:
            source_rows = run_plan(prepared.select, self._environment(params))
            if source_rows and len(source_rows[0]) != len(targets):
                raise IntegrityError("INSERT ... SELECT column count mismatch")
        storage = prepared.entry.storage
        arity = storage.schema.arity
        for values in source_rows:
            row: List[Any] = [None] * arity
            for (position, convert), value in zip(targets, values):
                row[position] = convert(value)
            storage.insert(row)
        return len(source_rows)

    def _reject_subquery(self, statement, frames):
        # INSERT ... VALUES may not embed subqueries in this dialect; the
        # planner callback position still has to exist for the compiler.
        raise ExecutionError("subqueries are not allowed in VALUES lists")

    def _modify(
        self, prepared: "_PreparedModify", params: Sequence[Any], owner, parkable
    ) -> int:
        """One UPDATE or DELETE statement: locate, lock, mutate."""
        storage = prepared.entry.storage
        env = self._environment(params)
        # Every match is known, in heap order, before the first lock or
        # mutation: lock, undo and WAL order do not depend on the access
        # path, and a statement that moves its own index key (``SET k =
        # k + 1 WHERE k = ?``) cannot meet a row twice.
        row_ids = sorted(prepared.plan.root.row_ids(env))
        # Row-level X on every matched row *before* the first mutation:
        # a conflict aborts the statement with nothing to undo, and the
        # rows are re-fetched below after the grant, so an assignment
        # like ``v = v + 1`` always reads the latest committed value.
        self._acquire_row_locks(owner, parkable, prepared.requests, row_ids)
        if isinstance(prepared.statement, ast.Delete):
            for row_id in row_ids:
                storage.delete(row_id)
        else:
            for row_id in row_ids:
                old_row = storage.fetch(row_id)
                row = list(old_row)
                # SQL semantics: every assignment sees the pre-update row.
                for position, closure, convert in prepared.assignments:
                    row[position] = convert(closure(old_row, env))
                storage.update(row_id, row)
        self.last_counters = dict(env.counters)
        return len(row_ids)


@dataclass
class _PreparedDml:
    """A parsed INSERT/UPDATE/DELETE with everything about it that does
    not depend on parameter values, built once per statement text and kept
    in the plan cache beside SELECT plans."""

    statement: Any
    #: Catalog entry of the target table.
    entry: Any
    #: The static lock footprint (:mod:`repro.concurrency.footprint`).
    requests: tuple


@dataclass
class _PreparedInsert(_PreparedDml):
    #: ``(column position, converter)`` per supplied value, in order.
    targets: List[Tuple[int, Callable[[Any], Any]]]
    #: INSERT ... VALUES: per row, what each value reads — the index of a
    #: bare ``?``, else a closure ``(row, env)``.
    value_rows: List[list]
    #: Whether a value closure may read the environment (a literal does
    #: not); without one no environment is built.
    needs_env: bool
    #: INSERT ... SELECT: the source query's plan (None for VALUES).
    select: Optional[Plan]


@dataclass
class _PreparedModify(_PreparedDml):
    """An UPDATE or DELETE."""

    #: The target-row access plan; its root answers ``row_ids``.
    plan: Plan
    #: UPDATE: ``(column position, closure over the pre-update row,
    #: converter)`` per SET clause; empty for DELETE.
    assignments: List[Tuple[int, Any, Callable[[Any], Any]]]


class _TransactionContext:
    """Context manager returned by :meth:`Database.transaction`."""

    def __init__(self, database: Database, session: Hashable = None) -> None:
        self._database = database
        self._session = session

    def __enter__(self) -> Database:
        self._database.begin(self._session)
        return self._database

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._database.commit(self._session)
        else:
            try:
                self._database.rollback(self._session)
            except ExecutionError:
                # The transaction may already be gone: a deadlock/timeout
                # victim is rolled back at the point of the conflict, so
                # there is nothing left to undo here.
                pass
        return False
