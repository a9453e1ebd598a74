"""Exception hierarchy shared by every subsystem of the reproduction.

All errors raised by :mod:`repro` derive from :class:`ReproError` so that
applications can catch the whole family with one ``except`` clause while
still being able to distinguish SQL problems from network or rule problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SQLError(ReproError):
    """Base class for errors raised by the :mod:`repro.sqldb` engine."""


class LexerError(SQLError):
    """The SQL tokeniser met a character sequence it cannot tokenise."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """The SQL parser met a token sequence that is not valid SQL."""


class CatalogError(SQLError):
    """A schema object (table, column, index, function) is missing/duplicated."""


class TypeMismatchError(SQLError):
    """An expression combined values of incompatible SQL types."""


class ExecutionError(SQLError):
    """A statement failed during execution (e.g. scalar subquery returned
    more than one row, recursion limit exceeded, division by zero)."""


class IntegrityError(SQLError):
    """A statement violated an integrity constraint (duplicate primary key,
    NOT NULL column receiving NULL, arity mismatch on INSERT)."""


class NetworkError(ReproError):
    """Base class for errors raised by the :mod:`repro.network` simulator."""


class LinkConfigurationError(NetworkError):
    """A network link was configured with non-physical parameters."""


class FaultConfigurationError(NetworkError):
    """A fault profile was configured with impossible parameters
    (probabilities outside [0, 1], inverted outage windows, ...)."""


class NetworkFault(NetworkError):
    """Base class for injected transmission faults.  Raised by a
    :class:`~repro.network.faults.FaultyLink` when a message does not make
    it to the other side intact; a resilient client turns these into
    retries, a bare connection lets them propagate."""


class MessageDropped(NetworkFault):
    """A message was lost in transit (random loss or a server outage
    window); the sender will only notice through a timeout."""


class FrameCorrupted(NetworkFault):
    """A frame arrived but failed its integrity check (bit flip or
    truncation detected via the sequenced-frame CRC)."""


class TimeoutError(NetworkError):  # noqa: A001 - deliberate, namespaced
    """A request exhausted its retry budget without receiving an intact
    response.  Shadows the builtin only under the ``repro.errors``
    namespace; import it qualified."""


class CircuitOpenError(NetworkError):
    """The client's circuit breaker is open: recent consecutive failures
    crossed the threshold and the cool-down has not elapsed yet, so the
    call was rejected locally without touching the WAN."""


class ProtocolError(ReproError):
    """The client/server protocol was violated (unknown request type,
    response for a different request, use of a closed connection)."""


class DurabilityError(ReproError):
    """Base class for errors raised by the :mod:`repro.recovery`
    subsystem (simulated disk, write-ahead log, crash recovery)."""


class DiskCrashed(DurabilityError):
    """The simulated disk hit its injected crash point (power loss at the
    Nth append).  The write in flight may be torn or corrupted on the
    platter; every later write is rejected until the disk is reopened.
    A server catching this must treat itself as crashed: volatile state
    is gone, only the log survives."""


class WalCorruptError(DurabilityError):
    """The write-ahead log is damaged *in the middle*: a record failed
    its CRC or framing check but valid records follow it, so stopping at
    the damage would silently drop committed work.  (Damage at the tail
    is expected after a torn write and is *not* an error — recovery just
    stops at the last intact record.)"""


class ServerUnavailable(ReproError):
    """The server is crashed (or restarting) and refused the connection.
    Distinguishable on the wire so clients can wait out the restart and
    re-drive their transactions."""


class DuplicateRequest(ReproError):
    """A sequenced request was already executed before a server restart:
    its sequence number is at or below the durably logged high-water
    mark, but the cached response was lost with the crash.  The work was
    done exactly once; only the answer is gone — the client must
    reconcile through the database, never by re-sending."""


class ConcurrencyError(ReproError):
    """Base class for errors raised by the :mod:`repro.concurrency`
    subsystem (lock manager, session manager)."""


class LockUnavailable(ConcurrencyError):
    """A lock request conflicts with locks held by another transaction.

    For a transaction the request is *parked* in the FIFO wait queue
    before this is raised, so retrying the same statement later either
    claims the since-granted lock or keeps the queue position — the
    single-threaded server never blocks inside a request."""


class LockTimeout(ConcurrencyError):
    """A parked lock request outlived its timeout on the simulated clock.
    The waiting transaction has been aborted; restart it."""


class DeadlockError(ConcurrencyError):
    """The wait-for graph contained a cycle and this transaction was
    chosen as the victim (youngest-transaction policy) and aborted.
    Distinguishable on the wire so a client retry policy can restart
    the whole transaction."""


class SessionError(ConcurrencyError):
    """A wire session operation was invalid (unknown session, double
    open, transaction frame without an open session)."""


#: Server errors that mean "your session is gone" (server crash/restart
#: dropped it): reopen the session before the next transaction attempt.
SESSION_LOST_ERRORS = (ServerUnavailable, SessionError)


class PDMError(ReproError):
    """Base class for errors raised by the :mod:`repro.pdm` layer."""


class UnknownObjectError(PDMError):
    """A PDM operation referenced an object id that does not exist."""


class CheckOutError(PDMError):
    """A check-out/check-in operation could not be performed (e.g. a node
    in the requested subtree is already checked out)."""


class ExpandInterrupted(PDMError):
    """A multi-level expand kept losing a round trip for good (retry
    budget exhausted or circuit open) after spending its resumes; the
    message names the lost round trip, the cause is its last error."""


class RuleError(ReproError):
    """Base class for errors raised by the :mod:`repro.rules` machinery."""


class ConditionTranslationError(RuleError):
    """A rule condition could not be translated into an SQL predicate."""


class QueryModificationError(RuleError):
    """The query modificator could not inject a rule into a query, e.g.
    because the query structure is hidden (paper, end of Section 5.5)."""


class ModelError(ReproError):
    """Base class for errors raised by the analytic model in
    :mod:`repro.model` (invalid tree or network parameters)."""
