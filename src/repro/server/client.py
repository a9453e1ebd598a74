"""Client-side driver: ships requests over the simulated link.

Every :meth:`RemoteConnection.execute` call is one round trip: the SQL
text (plus bound parameters) travels to the server, the encoded result
set travels back, and the link's simulated clock advances by the latency
and transfer time of both messages.  This is the data-shipping behaviour
whose cost the paper analyses; reducing the number of these calls is the
whole point of the recursive-query approach.

Local query evaluation time is *not* charged, matching the paper:
"transmission costs are the dominating limitation factor.  Therefore
local query evaluation costs were ignored" (Section 6).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    SESSION_LOST_ERRORS,
    CatalogError,
    CheckOutError,
    CircuitOpenError,
    DeadlockError,
    DuplicateRequest,
    ExecutionError,
    IntegrityError,
    LexerError,
    LockTimeout,
    LockUnavailable,
    MessageDropped,
    ParseError,
    ProtocolError,
    ReproError,
    ServerUnavailable,
    SessionError,
    TimeoutError,
    TypeMismatchError,
)
from repro.network.faults import CircuitBreaker, RetryPolicy
from repro.network.link import NetworkLink
from repro.obs import BYTES_BUCKETS, maybe_span
from repro.server import protocol
from repro.server.protocol import Opcode
from repro.server.server import DatabaseServer
from repro.sqldb import wire
from repro.sqldb.result import ResultSet

#: Error classes the client can reconstruct from ERROR frames.
_ERROR_TYPES = {
    "CheckOutError": CheckOutError,
    "DeadlockError": DeadlockError,
    "DuplicateRequest": DuplicateRequest,
    "ExecutionError": ExecutionError,
    "LockTimeout": LockTimeout,
    "LockUnavailable": LockUnavailable,
    "ProtocolError": ProtocolError,
    "ServerUnavailable": ServerUnavailable,
    "SessionError": SessionError,
}

#: Engine errors the client re-raises as their own class, the message still
#: prefixed with the server's class name.
_SQL_ERROR_TYPES = {
    error.__name__: error
    for error in (ParseError, LexerError, CatalogError, TypeMismatchError, IntegrityError)
}

#: Server errors that mean "restart the whole transaction and try again".
RETRIABLE_TXN_ERRORS = (DeadlockError, LockTimeout, LockUnavailable)


class RemoteError(ReproError):
    """A server-side error re-raised at the client, preserving the server's
    error class name and message."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


class RemoteConnection:
    """A connection from a (possibly intercontinental) client to a server.

    Without a :class:`~repro.network.faults.RetryPolicy` the connection is
    the paper's idealised driver: one message out, one message back, no
    failure handling (an injected fault propagates to the caller).  With a
    policy, every request is wrapped in a SEQUENCED frame (client id +
    sequence number + CRC) and driven through a retry loop: lost messages
    are waited out for ``timeout_s`` simulated seconds, corrupted frames
    are detected via the CRC, retries back off exponentially with seeded
    jitter, and the server's replay cache makes retransmissions of
    non-idempotent statements safe.  A circuit breaker rejects calls
    locally once consecutive failures cross its threshold.
    """

    #: Distinct client ids so several connections to one server never
    #: collide in its replay cache.
    _next_client_id = itertools.count(1)

    def __init__(
        self,
        server: DatabaseServer,
        link: NetworkLink,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.server = server
        self.link = link
        self.closed = False
        self.retry_policy = retry_policy
        if circuit_breaker is None and retry_policy is not None:
            circuit_breaker = CircuitBreaker()
        self.circuit_breaker = circuit_breaker
        self.client_id = next(self._next_client_id) & 0xFFFFFFFF
        self._seq = itertools.count(1)
        self._backoff_rng = retry_policy.rng() if retry_policy else None
        self.statistics = {"round_trips": 0, "attempts": 0}
        #: Whether OPEN_SESSION succeeded.  With a session open, even a
        #: policy-less connection wraps requests in SEQUENCED frames (one
        #: attempt, no retries) so the server can route statements to this
        #: client's transaction.
        self._session_open = False
        #: Optional :class:`repro.obs.TraceRecorder` (see
        #: :func:`repro.obs.instrument_stack`); None disables tracing.
        self.recorder = None

    # -- core round trip ------------------------------------------------------

    def _ensure_open(self) -> None:
        if self.closed:
            raise ProtocolError("connection is closed")

    def _call(self, opcode: Opcode, body: bytes, expect: Opcode) -> bytes:
        """The one reply path: one round trip carrying *body* under
        *opcode*; returns the body of the *expect* reply.  An ERROR reply
        raises the server's error, any other opcode :class:`ProtocolError`."""
        self._ensure_open()
        request = protocol.encode_envelope(opcode, body)
        if self.recorder is None:
            response = self._exchange(request)
        else:
            response = self._traced_exchange(request)
        answer, body = protocol.decode_envelope(response)
        if answer is expect:
            return body
        if answer is Opcode.ERROR:
            raise self._remote_error(body)
        raise ProtocolError(f"unexpected response opcode {answer.name}")

    def _traced_exchange(self, request: bytes) -> bytes:
        recorder = self.recorder
        with recorder.span(
            "rpc.round_trip",
            kind="client",
            opcode=protocol.opcode_label(request),
        ):
            start = self.link.clock.now
            response = self._exchange(request)
            metrics = recorder.metrics
            metrics.histogram("client.round_trip_seconds").observe(
                self.link.clock.now - start
            )
            metrics.histogram("client.request_bytes", BYTES_BUCKETS).observe(
                len(request)
            )
            metrics.histogram("client.response_bytes", BYTES_BUCKETS).observe(
                len(response)
            )
            return response

    def _exchange(self, request: bytes) -> bytes:
        """Carry *request* the way this connection is configured to."""
        if self.retry_policy is not None:
            return self._resilient_round_trip(request)
        if self._session_open:
            return self._sequenced_attempt(request)
        return self._attempt(request)

    def _attempt(self, request: bytes) -> bytes:
        """One bare request/response exchange (no failure handling)."""
        self.statistics["attempts"] += 1
        with maybe_span(
            self.recorder,
            "rpc.attempt",
            kind="client",
            request_bytes=len(request),
        ) as span:
            delivered = self.link.deliver(
                request, is_request=True, opcode=protocol.opcode_label(request)
            )
            response = self.server.handle(delivered)
            cpu_seconds = getattr(self.server, "last_cpu_seconds", 0.0)
            if cpu_seconds:
                # Server-side evaluation time (zero unless a CPU cost model
                # is configured, matching the paper's Section 6 convention).
                self.link.clock.advance(cpu_seconds, "server_cpu")
                self.link.stats.server_seconds += cpu_seconds
            response = self.link.deliver(
                response,
                is_request=False,
                opcode=protocol.opcode_label(response),
            )
            if span is not None:
                span.meta["response_bytes"] = len(response)
            self.statistics["round_trips"] += 1
            return response

    def _sequenced_attempt(self, request: bytes) -> bytes:
        """One sequenced exchange without retries (session mode on a
        policy-less connection): the SEQUENCED wrapper carries the client
        id that routes the statement to this client's session."""
        seq, wrapped = self._sequenced(request)
        inner = self._unwrap_sequenced(self._attempt(wrapped), seq)
        if inner is None:
            raise ProtocolError(
                f"response to sequence {seq} failed its integrity check"
            )
        return inner

    def _resilient_round_trip(self, request: bytes) -> bytes:
        policy = self.retry_policy
        breaker = self.circuit_breaker
        clock = self.link.clock
        stats = self.link.stats
        seq, wrapped = self._sequenced(request)
        failure: Optional[ReproError] = None
        for attempt in range(policy.max_attempts):
            if breaker is not None and not breaker.allow(clock.now):
                raise CircuitOpenError(
                    f"circuit open for another "
                    f"{breaker.seconds_until_trial(clock.now):.1f}s "
                    f"(simulated) after repeated failures"
                ) from failure
            if attempt:
                stats.retries += 1
                pause = policy.backoff_seconds(attempt, self._backoff_rng)
                stats.backoff_seconds += pause
                if self.recorder is not None:
                    self.recorder.event(
                        "rpc.retry", attempt=attempt + 1, backoff_s=pause
                    )
                clock.advance(pause, "backoff")
            deadline = clock.now + policy.timeout_s
            try:
                raw = self._attempt(wrapped)
            except MessageDropped as dropped:
                # Nobody will answer: wait out the rest of the timeout.
                stats.timeouts += 1
                if self.recorder is not None:
                    self.recorder.event(
                        "rpc.timeout", attempt=attempt + 1, reason=str(dropped)
                    )
                if clock.now < deadline:
                    stats.timeout_seconds += deadline - clock.now
                    clock.advance(deadline - clock.now, "timeout")
                failure = TimeoutError(
                    f"no response within {policy.timeout_s}s "
                    f"(attempt {attempt + 1}: {dropped})"
                )
            else:
                inner = self._unwrap_sequenced(raw, seq)
                if inner is not None:
                    if breaker is not None:
                        breaker.record_success()
                    return inner
                failure = ProtocolError(
                    f"response to sequence {seq} failed its integrity check"
                )
            if breaker is not None:
                breaker.record_failure(clock.now)
        raise TimeoutError(
            f"request abandoned after {policy.max_attempts} attempts"
        ) from failure

    def _sequenced(self, request: bytes) -> Tuple[int, bytes]:
        """The next sequence number and *request* wrapped under it."""
        seq = next(self._seq) & 0xFFFFFFFF
        body = protocol.encode_sequenced(self.client_id, seq, request)
        return seq, protocol.encode_envelope(Opcode.SEQUENCED, body)

    def _unwrap_sequenced(self, raw: bytes, seq: int) -> Optional[bytes]:
        """Extract the inner response, or None for any transport damage.

        In resilient mode a healthy server always answers with a
        CRC-valid, sequence-matching SEQUENCED_RESULT (server-side errors
        arrive as ERROR frames *inside* that wrapper).  Everything else —
        undecodable envelope, CRC mismatch, wrong sequence number, or the
        server's own ``FrameCorrupted`` rejection of a mangled request —
        means the exchange was damaged in transit and should be retried.
        """
        try:
            opcode, body = protocol.decode_envelope(raw)
        except ProtocolError:
            return None
        if opcode is not Opcode.SEQUENCED_RESULT:
            return None
        try:
            client_id, response_seq, inner = protocol.decode_sequenced(body)
        except ProtocolError:
            return None
        if client_id != self.client_id or response_seq != seq:
            return None
        return inner

    # -- public API -------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute one SQL statement on the server (one round trip)."""
        body = self._call(Opcode.QUERY, wire.encode_query(sql, params), Opcode.RESULT)
        return wire.decode_result(body)

    def execute_batch(
        self, statements: Sequence[Tuple[str, Sequence[Any]]]
    ) -> List[Union[ResultSet, ReproError]]:
        """Execute N statements in ONE round trip (the pipelined batch).

        Returns one entry per statement, in order: a :class:`ResultSet`
        for successes and an *exception instance* (not raised) for
        statement-level failures, so one bad statement never poisons the
        batch.  Callers decide whether a per-statement error is fatal.

        An empty batch is answered locally — shipping zero statements
        across a WAN would pay a round trip for nothing.
        """
        if not statements:
            self._ensure_open()
            return []
        body = self._call(
            Opcode.BATCH, protocol.encode_batch(statements), Opcode.BATCH_RESULT
        )
        entries = protocol.decode_batch_result(body)
        if len(entries) != len(statements):
            raise ProtocolError(
                f"batch of {len(statements)} statements answered with "
                f"{len(entries)} entries"
            )
        results: List[Union[ResultSet, ReproError]] = []
        for kind, payload in entries:
            if kind == protocol.BATCH_ENTRY_ERROR:
                results.append(self._remote_error(payload))
            else:
                results.append(wire.decode_result(payload))
        return results

    def server_stats(self) -> Dict[str, Any]:
        """Fetch :meth:`DatabaseServer.counters` (one round trip): the
        server's own counters under their bare names, every attached
        layer's under ``db_`` / ``wal_`` / ``locks_`` / ``sessions_``."""
        return protocol.decode_stats(
            self._call(Opcode.STATS, b"", Opcode.STATS_RESULT)
        )

    def call_procedure(self, name: str, args: Sequence[Any] = ()) -> List[Any]:
        """Invoke a server procedure (one round trip, function shipping)."""
        body = self._call(
            Opcode.CALL_PROCEDURE,
            protocol.encode_procedure_call(name, args),
            Opcode.PROCEDURE_RESULT,
        )
        return protocol.decode_values(body)

    # -- sessions / transactions -------------------------------------------------

    def _session_op(self, opcode: Opcode, expect: Opcode) -> List[Any]:
        body = self._call(opcode, protocol.encode_session_op(self.client_id), expect)
        return protocol.decode_values(body)

    def open_session(self) -> None:
        """Open a server session keyed on this connection's client id.

        Required before :meth:`begin`; idempotent on the server side so a
        retransmitted handshake cannot fail.
        """
        self._session_op(Opcode.OPEN_SESSION, Opcode.SESSION_RESULT)
        self._session_open = True

    def close_session(self) -> None:
        """Close the server session (rolls back any open transaction)."""
        self._session_op(Opcode.CLOSE_SESSION, Opcode.SESSION_RESULT)
        self._session_open = False

    def mark_session_lost(self) -> None:
        """Forget client-side session state after the server dropped it.

        Call this on :class:`ServerUnavailable` / :class:`SessionError`
        (crash eviction): the server-side session is gone, so there is
        nothing to close or roll back remotely — the next :meth:`begin`
        re-opens a session against the recovered server.  Idempotent.
        """
        self._session_open = False

    def begin(self, read_only: bool = False) -> int:
        """Start a server-side transaction; returns its id.

        Opens the session implicitly on first use.  ``read_only=True``
        sends ``TXN_BEGIN_RO`` (``BEGIN READ ONLY``): the server rejects
        DML inside the transaction and serves its reads from a lock-free
        snapshot.
        """
        if not self._session_open:
            self.open_session()
        opcode = Opcode.TXN_BEGIN_RO if read_only else Opcode.TXN_BEGIN
        values = self._session_op(opcode, Opcode.TXN_RESULT)
        return int(values[1])

    def commit(self) -> None:
        """Commit this session's transaction.

        A :class:`DuplicateRequest` answer counts as success: it means a
        previous transmission of this very commit executed before a server
        crash and its sequence number is at or below the durably logged
        high-water mark — the commit is on disk, only the original
        response was lost with the restart.
        """
        try:
            self._session_op(Opcode.TXN_COMMIT, Opcode.TXN_RESULT)
        except DuplicateRequest:
            pass

    def rollback(self) -> None:
        """Roll back this session's transaction.

        A no-op success when the transaction is already gone (force-
        aborted as a deadlock victim) — rolling back must be safe to call
        from any failure path.
        """
        self._session_op(Opcode.TXN_ROLLBACK, Opcode.TXN_RESULT)

    def transaction(self) -> "_RemoteTransaction":
        """Context manager mirroring :meth:`Database.transaction`:
        commit on success, roll back on exception."""
        return _RemoteTransaction(self)

    def run_transaction(
        self,
        fn,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        """Run ``fn(connection)`` inside a transaction, restarting on
        concurrency conflicts.

        Any :class:`DeadlockError`, :class:`LockTimeout` or
        :class:`LockUnavailable` rolls the transaction back (a no-op if
        the server already aborted it), waits out the policy's backoff on
        the simulated clock and re-runs *fn* from scratch — so *fn* must
        be safe to re-execute, which 2PL guarantees as long as all its
        effects go through this transaction.  Raises
        :class:`repro.errors.TimeoutError` after ``max_attempts``
        restarts.

        A :class:`ServerUnavailable` or :class:`SessionError` (the server
        crashed and dropped this session) also restarts *fn*: the session
        is marked closed so the next attempt's :meth:`begin` re-opens it
        against the recovered server.  One caveat is inherent: a crash
        *during* the commit round trip leaves the outcome ambiguous (the
        commit record may or may not have hit the disk), and the re-run
        would apply the transaction twice if it did.  Transactions re-
        driven across crashes must therefore be crash-idempotent — check
        whether their effect is already present before re-applying (see
        the applied-token pattern in ``repro.recovery.chaos``).
        """
        policy = retry_policy or self.retry_policy or RetryPolicy()
        rng = policy.rng()
        last: Optional[ReproError] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                pause = policy.backoff_seconds(attempt, rng)
                self.link.stats.backoff_seconds += pause
                self.link.clock.advance(pause, "backoff")
            try:
                self.begin()
                result = fn(self)
                self.commit()
                return result
            except RETRIABLE_TXN_ERRORS as error:
                last = error
                try:
                    self.rollback()
                except ReproError:
                    pass
            except SESSION_LOST_ERRORS as error:
                last = error
                # The server-side session died with the crash; there is
                # nothing to roll back there and no session to speak to.
                self.mark_session_lost()
        raise TimeoutError(
            f"transaction abandoned after {policy.max_attempts} attempts"
        ) from last

    def ping(self) -> float:
        """Measure one empty round trip; returns the delay in seconds."""
        before = self.link.clock.now
        self._call(Opcode.PING, b"", Opcode.PONG)
        return self.link.clock.now - before

    def close(self) -> None:
        """Close the connection; closing an already-closed one is a no-op."""
        self.closed = True

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _remote_error(self, body: bytes) -> ReproError:
        """Reconstruct (without raising) the exception an ERROR frame carries."""
        kind, message = protocol.decode_error(body)
        error_type = _ERROR_TYPES.get(kind)
        if error_type is not None:
            return error_type(message)
        error_type = _SQL_ERROR_TYPES.get(kind)
        if error_type is not None:
            return error_type(f"{kind}: {message}")
        return RemoteError(kind, message)


class _RemoteTransaction:
    """``with connection.transaction():`` — commit on success, roll back on
    any exception (tolerating an already-aborted deadlock victim)."""

    def __init__(self, connection: RemoteConnection) -> None:
        self.connection = connection
        self.txn_id: Optional[int] = None

    def __enter__(self) -> "_RemoteTransaction":
        self.txn_id = self.connection.begin()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.connection.commit()
        else:
            try:
                self.connection.rollback()
            except ReproError:
                pass
