"""The database server: executes wire requests against a local Database.

Besides plain query execution, the server supports *server procedures* —
named Python callables installed next to the database.  These model the
paper's conclusion for check-out ("application-specific functionality
performing the desired user action has to be installed at the database
server", Section 6): the whole multi-statement operation runs server-side
and only one round trip crosses the WAN.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlockError,
    DiskCrashed,
    DuplicateRequest,
    DurabilityError,
    FrameCorrupted,
    LockTimeout,
    LockUnavailable,
    ProtocolError,
    ReproError,
    ServerUnavailable,
    SessionError,
)
from repro.obs import ROWS_BUCKETS, maybe_span
from repro.server import protocol
from repro.server.protocol import Opcode
from repro.sqldb import wire
from repro.sqldb.database import Database

#: A server procedure receives the database and the call arguments and
#: returns a flat list of values shipped back to the client.
ServerProcedure = Callable[..., Sequence[Any]]


class CpuCostModel:
    """Simulated server-side query evaluation cost.

    The paper deliberately ignores local evaluation time ("transmission
    costs are the dominating limitation factor", Section 6) but notes that
    "in higher bandwidth environments ... it may be reasonable to take
    local query execution time into consideration".  This model charges a
    fixed cost per statement plus a cost per row the executor scanned;
    the defaults of zero reproduce the paper's convention.
    """

    def __init__(
        self,
        seconds_per_statement: float = 0.0,
        seconds_per_row_scanned: float = 0.0,
    ) -> None:
        self.seconds_per_statement = seconds_per_statement
        self.seconds_per_row_scanned = seconds_per_row_scanned

    @property
    def enabled(self) -> bool:
        return self.seconds_per_statement > 0 or self.seconds_per_row_scanned > 0

    def cost(self, statements: int, rows_scanned: int) -> float:
        return (
            statements * self.seconds_per_statement
            + rows_scanned * self.seconds_per_row_scanned
        )


class DatabaseServer:
    """Request handler bound to one :class:`Database` instance."""

    def __init__(
        self,
        database: Database,
        cpu_cost: Optional[CpuCostModel] = None,
        sessions=None,
        durability=None,
    ) -> None:
        self.database = database
        self.cpu_cost = cpu_cost if cpu_cost is not None else CpuCostModel()
        #: Optional :class:`repro.recovery.Durability` bundle.  With one,
        #: the server has a deterministic :meth:`crash`/:meth:`restart`
        #: lifecycle: a :class:`DiskCrashed` from the WAL takes the server
        #: down, and restart rebuilds the database by log replay.
        self.durability = durability
        #: While True every request is refused with
        #: :class:`ServerUnavailable` (sequenced requests get a wrapped
        #: refusal so session-mode clients see it as a reply, not noise).
        self.crashed = False
        #: Optional :class:`repro.concurrency.SessionManager`; without one
        #: the session/transaction opcodes are rejected and every wire
        #: statement runs on the database's default session, as before.
        self.sessions = sessions
        #: Client id of the SEQUENCED frame being handled (routes QUERY /
        #: BATCH statements to that client's session transaction).
        self._active_client: Optional[int] = None
        #: CPU seconds charged for the most recent request (consumed by
        #: the client driver to advance the simulated clock).
        self.last_cpu_seconds = 0.0
        #: Rows the executor scanned for the current request, accumulated
        #: per statement so a BATCH of N statements is charged for all N
        #: scans, not just the last one.
        self._request_rows_scanned = 0
        #: Optional :class:`repro.obs.TraceRecorder` (see
        #: :func:`repro.obs.instrument_stack`); None keeps handling
        #: untraced and free.
        self.recorder = None
        self._procedures: Dict[str, ServerProcedure] = {}
        #: (client id, sequence number) -> wrapped response.  Answering a
        #: retransmission from here (instead of re-executing) is what
        #: makes retried EXECUTE/BATCH requests idempotent.
        self._replay_cache: "OrderedDict[Tuple[int, int], bytes]" = OrderedDict()
        #: The least client id :meth:`new_client_id` may hand out next.
        self._next_client_id = 1
        self.replay_cache_size = 512
        #: Events that happen *here*.  What happens in the engine, the
        #: WAL, the lock manager or the session manager is counted there
        #: and nowhere else; :meth:`counters` is the one view over all of
        #: them.  ``lock_waits`` / ``deadlocks`` count the refusals this
        #: server *sent* (the lock manager counts what it raised for a
        #: parked request and the cycles it found); ``txn_aborts`` counts
        #: every deadlock or timeout abort sent plus every TXN_ROLLBACK
        #: received, so an acknowledged victim shows twice.
        self.statistics = {
            "queries": 0,
            "procedure_calls": 0,
            "batches": 0,
            "batch_statements": 0,
            "errors": 0,
            "cpu_seconds": 0.0,
            "sequenced_requests": 0,
            "duplicates_suppressed": 0,
            "crc_rejects": 0,
            "lock_waits": 0,
            "deadlocks": 0,
            "txn_aborts": 0,
            "crashes": 0,
            "recoveries": 0,
            "replayed_records": 0,
            "hwm_suppressed": 0,
            "unavailable_refusals": 0,
        }

    def register_procedure(self, name: str, procedure: ServerProcedure) -> None:
        """Install a server procedure callable via CALL_PROCEDURE requests."""
        self._procedures[name.lower()] = procedure

    def procedure_names(self) -> List[str]:
        return sorted(self._procedures)

    def handle(self, frame: bytes) -> bytes:
        """Process one request envelope and return the response envelope.

        Errors raised by the engine are converted into ERROR envelopes, so
        a malformed query costs a round trip but never kills the server —
        matching real client/server DBMS behaviour.
        """
        if self.crashed:
            return self._refuse_unavailable(frame)
        if frame[:1] == protocol.SEQUENCED_BYTE:
            return self._handle_sequenced(frame[1:])
        self.last_cpu_seconds = 0.0
        self._request_rows_scanned = 0
        statements_before = self.database.statistics["statements"]
        recorder = self.recorder
        with maybe_span(
            recorder, "server.handle", kind="server", frame_bytes=len(frame)
        ) as span:
            try:
                opcode, body = protocol.decode_envelope(frame)
                if span is not None:
                    span.meta["opcode"] = opcode.name
                if opcode is Opcode.QUERY:
                    response = self._handle_query(body)
                elif opcode is Opcode.CALL_PROCEDURE:
                    response = self._handle_procedure(body)
                elif opcode is Opcode.BATCH:
                    response = self._handle_batch(body)
                elif opcode is Opcode.STATS:
                    response = self._handle_stats(body)
                elif opcode is Opcode.PING:
                    response = protocol.encode_envelope(Opcode.PONG)
                elif opcode in protocol.SESSION_OPCODES:
                    response = self._handle_session_op(opcode, body)
                else:
                    raise ProtocolError(
                        f"unexpected request opcode {opcode.name}"
                    )
            except Exception as error:  # noqa: BLE001 — last-resort guard
                if span is not None:
                    span.meta["error"] = type(error).__name__
                    if not isinstance(error, ReproError):
                        span.meta["unexpected"] = True
                return self._error_reply(self._answer_for(error))
            if self.cpu_cost.enabled:
                statements = (
                    self.database.statistics["statements"] - statements_before
                )
                self.last_cpu_seconds = self.cpu_cost.cost(
                    statements, self._request_rows_scanned
                )
                self.statistics["cpu_seconds"] += self.last_cpu_seconds
            return response

    def _handle_sequenced(self, body: bytes) -> bytes:
        """At-most-once execution for sequenced requests.

        A CRC-failed body (bit flip or truncation in transit) is answered
        with a retriable ``FrameCorrupted`` error frame; a (client, seq)
        pair seen before is answered from the replay cache *without*
        touching the database, so a retransmitted UPDATE never applies
        twice; anything else is handled normally and the wrapped response
        cached.
        """
        try:
            client_id, seq, inner = protocol.decode_sequenced(body)
        except ProtocolError as error:
            self.statistics["crc_rejects"] += 1
            self.last_cpu_seconds = 0.0
            return self._error_reply(FrameCorrupted(str(error)))
        if inner[:1] == protocol.SEQUENCED_BYTE:
            self.last_cpu_seconds = 0.0
            return self._error_reply(
                ProtocolError("nested sequenced frames are not allowed")
            )
        self.statistics["sequenced_requests"] += 1
        key = (client_id, seq)
        cached = self._replay_cache.get(key)
        recorder = self.recorder
        if cached is not None:
            self.statistics["duplicates_suppressed"] += 1
            self.last_cpu_seconds = 0.0
            with maybe_span(
                recorder,
                "server.handle",
                kind="server",
                sequenced=True,
                client_id=client_id,
                seq=seq,
                replay_hit=True,
            ):
                pass
            return cached
        wal = self.database.wal
        if wal is not None and 0 < seq <= wal.hwm.get(client_id, 0):
            # The durable high-water mark proves this sequence number
            # already drove a commit before a crash wiped the replay
            # cache.  Re-executing would apply the work twice; answer
            # with a distinguishable refusal instead (at-most-once
            # across restarts).
            self.statistics["hwm_suppressed"] += 1
            refusal = DuplicateRequest(
                f"sequence {seq} of client {client_id} was executed and "
                f"committed before a server restart; its response was lost "
                f"with the crash"
            )
            wrapped = self._sequenced_reply(
                client_id, seq, self._error_envelope(refusal)
            )
            self._replay_cache[key] = wrapped
            return wrapped
        with maybe_span(
            recorder,
            "server.sequenced",
            kind="server",
            client_id=client_id,
            seq=seq,
        ):
            previous = self._active_client
            previous_origin = wal.origin if wal is not None else None
            self._active_client = client_id
            if wal is not None:
                # Commits performed while handling this request carry its
                # (client, seq) into the log — the durable twin of the
                # replay cache.
                wal.origin = (client_id, seq)
            try:
                response = self.handle(inner)
            finally:
                self._active_client = previous
                if wal is not None:
                    wal.origin = previous_origin
        wrapped = self._sequenced_reply(client_id, seq, response)
        if self.crashed:
            # The request crashed the server: never cache the refusal —
            # a retry after restart must re-resolve against the durable
            # high-water mark, not replay a stale "unavailable".
            return wrapped
        self._replay_cache[key] = wrapped
        while len(self._replay_cache) > self.replay_cache_size:
            self._replay_cache.popitem(last=False)
        return wrapped

    # -- crash / restart ----------------------------------------------------

    def _refuse_unavailable(self, frame: bytes) -> bytes:
        """Answer a request arriving at a crashed server.

        Sequenced requests get the refusal wrapped in a SEQUENCED_RESULT
        (CRC-framed, matching the request's client and sequence number)
        so session-mode clients decode it as a definite answer instead of
        discarding it as transport damage and retrying forever.  Nothing
        is cached: the refusal describes the server, not the request.
        """
        self.last_cpu_seconds = 0.0
        self.statistics["unavailable_refusals"] += 1
        error_frame = self._error_envelope(
            ServerUnavailable("server is crashed; wait for restart and retry")
        )
        if frame[:1] == protocol.SEQUENCED_BYTE:
            try:
                client_id, seq, __ = protocol.decode_sequenced(frame[1:])
            except ProtocolError:
                return error_frame
            return self._sequenced_reply(client_id, seq, error_frame)
        return error_frame

    # -- reply builders -----------------------------------------------------

    def _answer_for(self, error: Exception) -> Exception:
        """The error a request that raised *error* is answered with."""
        if isinstance(error, DiskCrashed):
            # The WAL disk lost power mid-append: all volatile state
            # (sessions, locks, caches, the in-memory tables) is gone.
            # Take the server down; only restart() brings it back.
            self.crash()
            return ServerUnavailable(f"server crashed: {error}")
        if isinstance(error, ReproError):
            self._note_concurrency_error(error)
            return error
        # A bug below the wire layer (or a misbehaving server procedure)
        # must cost the client an error round trip, never kill the server.
        return ProtocolError(f"internal server error: {type(error).__name__}: {error}")

    @staticmethod
    def _error_envelope(error: Exception) -> bytes:
        """The one place an ERROR envelope is built."""
        return protocol.encode_envelope(Opcode.ERROR, protocol.encode_error(error))

    def _error_reply(self, error: Exception) -> bytes:
        """Answer the request being handled with *error*, counted once."""
        self.statistics["errors"] += 1
        return self._error_envelope(error)

    @staticmethod
    def _sequenced_reply(client_id: int, seq: int, response: bytes) -> bytes:
        """The one place a SEQUENCED_RESULT wrapper is built: *response*
        behind the request's client id, sequence number and CRC."""
        return protocol.encode_envelope(
            Opcode.SEQUENCED_RESULT,
            protocol.encode_sequenced(client_id, seq, response),
        )

    def crash(self) -> None:
        """Deterministic power-off: drop every piece of volatile state.

        Sessions are evicted through the same path a single dead client's
        eviction uses (rolling back their transactions, which releases
        their 2PL locks in order), the lock table and the replay cache
        are cleared, and the server refuses all requests until
        :meth:`restart`.  Idempotent.  The database object stays referenced
        but is semantically dead — restart replaces it with the recovered
        one.
        """
        if self.crashed:
            return
        self.crashed = True
        self.statistics["crashes"] += 1
        if self.sessions is not None:
            self.sessions.evict_all()
        if self.database.locks is not None:
            self.database.locks.reset()
        self._replay_cache.clear()

    def restart(self) -> Database:
        """Recover the database from the write-ahead log and come back up.

        Requires a :class:`repro.recovery.Durability` bundle.  Calls
        :meth:`crash` first if the server is still nominally up (a clean
        restart drill), then replays the log into a fresh database, rebinds
        the session manager (which re-attaches the lock manager), and
        starts answering requests again.  The SEQUENCED replay cache is
        empty after a restart, but the recovered high-water mark keeps
        at-most-once execution intact: pre-crash sequence numbers are
        refused with :class:`DuplicateRequest` instead of re-executed.
        """
        if self.durability is None:
            raise DurabilityError(
                "server has no durability bundle; attach one to restart"
            )
        self.crash()
        database = self.durability.recover()
        if self.recorder is not None:
            database.recorder = self.recorder
        self.database = database
        if self.sessions is not None:
            self.sessions.rebind(database)
        report = self.durability.last_report
        self.statistics["recoveries"] += 1
        if report is not None:
            self.statistics["replayed_records"] += report.replayed_records
        self.crashed = False
        return database

    def new_client_id(self) -> int:
        """A client id for a new connection: above every id this server
        handed out, also before a restart, and above every client whose
        high-water mark the database's WAL recovered, so a new client
        never inherits an old client's sequence numbers."""
        wal = self.database.wal
        recovered = max(wal.hwm, default=0) if wal is not None else 0
        client_id = max(self._next_client_id, recovered + 1)
        self._next_client_id = client_id + 1
        return client_id & 0xFFFFFFFF

    def _note_concurrency_error(self, error: ReproError) -> None:
        """Attribute concurrency-control outcomes to the STATS counters."""
        if isinstance(error, LockUnavailable):
            self.statistics["lock_waits"] += 1
        elif isinstance(error, DeadlockError):
            self.statistics["deadlocks"] += 1
            self.statistics["txn_aborts"] += 1
        elif isinstance(error, LockTimeout):
            self.statistics["txn_aborts"] += 1

    def _session_token(self):
        """Database session for the statement being handled.

        A client with an open session executes on the session of its
        client id; everything else (no session manager, unsequenced
        requests, clients that never opened a session) runs on the
        default session, preserving the pre-session behaviour.
        """
        if self.sessions is None:
            return None
        client_id = self._active_client
        if self.sessions.is_open(client_id):
            return client_id
        if self.sessions.was_evicted(client_id):
            raise SessionError(
                f"session of client {client_id} was evicted "
                f"by the server (idle teardown or crash); send "
                f"OPEN_SESSION to continue"
            )
        return None

    def _handle_session_op(self, opcode: Opcode, body: bytes) -> bytes:
        if self.sessions is None:
            raise ProtocolError(
                f"{opcode.name} requires a server with session support"
            )
        client_id = protocol.decode_session_op(body)
        sessions = self.sessions
        answer = Opcode.TXN_RESULT
        if opcode is Opcode.OPEN_SESSION:
            sessions.open(client_id)
            answer, values = Opcode.SESSION_RESULT, ["open", client_id]
        elif opcode is Opcode.CLOSE_SESSION:
            sessions.close(client_id)
            answer, values = Opcode.SESSION_RESULT, ["closed", client_id]
        elif opcode is Opcode.TXN_BEGIN:
            values = ["begin", sessions.begin(client_id)]
        elif opcode is Opcode.TXN_BEGIN_RO:
            values = ["begin_ro", sessions.begin(client_id, read_only=True)]
        elif opcode is Opcode.TXN_COMMIT:
            sessions.commit(client_id)
            values = ["commit", client_id]
        else:  # TXN_ROLLBACK
            sessions.rollback(client_id)
            self.statistics["txn_aborts"] += 1
            values = ["rollback", client_id]
        return protocol.encode_envelope(answer, protocol.encode_values(values))

    def _statement_done(self, result) -> None:
        """Account one successfully executed statement's scan and rows."""
        self._request_rows_scanned += self.database.last_counters.get(
            "rows_scanned", 0
        )
        if self.recorder is not None:
            self.recorder.metrics.histogram(
                "server.rows_per_result", ROWS_BUCKETS
            ).observe(len(result.rows))

    def _handle_query(self, body: bytes) -> bytes:
        sql, params = wire.decode_query(body)
        self.statistics["queries"] += 1
        result = self.database.execute(sql, params, session=self._session_token())
        self._statement_done(result)
        return protocol.encode_envelope(Opcode.RESULT, wire.encode_result(result))

    def _handle_batch(self, body: bytes) -> bytes:
        """Execute a pipelined batch: one entry per statement.

        Statement-level failures become BATCH_ENTRY_ERROR entries in the
        response, so a bad statement never poisons its batch — only a
        malformed frame (caught in :meth:`handle`) fails the whole request.
        """
        statements = protocol.decode_batch(body)
        self.statistics["batches"] += 1
        token = self._session_token()
        entries: List[tuple] = []
        for sql, params in statements:
            self.statistics["batch_statements"] += 1
            try:
                result = self.database.execute(sql, params, session=token)
                self._statement_done(result)
                # An unencodable result (an int64-overflowing value, text
                # UTF-8 cannot carry) fails here, as a ProtocolError, and
                # poisons only its own entry.
                entries.append(
                    (protocol.BATCH_ENTRY_RESULT, wire.encode_result(result))
                )
            except ReproError as error:
                self._note_concurrency_error(error)
                self.statistics["errors"] += 1
                entries.append(
                    (protocol.BATCH_ENTRY_ERROR, protocol.encode_error(error))
                )
        return protocol.encode_envelope(
            Opcode.BATCH_RESULT, protocol.encode_batch_result(entries)
        )

    def counters(self) -> Dict[str, Any]:
        """One flat snapshot of every always-on counter in this stack.

        The server's own ``statistics`` keep their names; each attached
        layer's follow under its prefix — ``db_`` (engine), ``wal_``,
        ``locks_``, ``sessions_`` — and ``sessions_open`` is the session
        manager's live gauge.  Nothing is copied anywhere else: the STATS
        frame, the simulator reports and the trace summary all read this.
        """
        database = self.database
        snapshot = dict(self.statistics)
        for prefix, layer in (
            ("db_", database),
            ("wal_", database.wal),
            ("locks_", database.locks),
            ("sessions_", self.sessions),
        ):
            if layer is not None:
                for name, value in layer.statistics.items():
                    snapshot[prefix + name] = value
        if self.sessions is not None:
            snapshot["sessions_open"] = self.sessions.open_count
        return snapshot

    def _handle_stats(self, body: bytes) -> bytes:
        """Report :meth:`counters` in one round trip, so a bench harness
        reads them without reaching into the server process."""
        if body:
            raise ProtocolError("STATS request carries no body")
        return protocol.encode_envelope(
            Opcode.STATS_RESULT, protocol.encode_stats(self.counters())
        )

    def _handle_procedure(self, body: bytes) -> bytes:
        name, args = protocol.decode_procedure_call(body)
        procedure = self._procedures.get(name.lower())
        if procedure is None:
            raise ProtocolError(f"unknown server procedure {name!r}")
        self.statistics["procedure_calls"] += 1
        values = procedure(self.database, *args)
        return protocol.encode_envelope(
            Opcode.PROCEDURE_RESULT, protocol.encode_values(list(values))
        )
