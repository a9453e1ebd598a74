"""CRC-32-framed write-ahead log: record codec, writer, and scanner.

Every mutation the SQL engine performs is described by one WAL record
appended to a :class:`~repro.recovery.simdisk.SimDisk` *before* the
server acknowledges the enclosing transaction.  Recovery replays the log
forward: committed transactions are redone, in-flight ones discarded —
so a crash loses at most the work nobody was told had committed.

Framing (big-endian)::

    magic(1 = 0xA5) | u32 payload length | u32 CRC-32 of payload | payload
    payload = kind(1) | u64 txn_id | body

Record kinds:

``B`` begin        body: empty (written lazily, before a txn's first op)
``C`` commit       body: origin flag(1) [+ u32 client_id + u32 seq]
``A`` abort        body: empty
``I`` insert       body: table, u64 row_id, u16 arity, values
``U`` update       body: table, u64 row_id, u16 n, n x (u16 position, value)
                   — only the columns the update changed; replay patches
                   them into the row it finds in the slot (n may be 0)
``D`` delete       body: table, u64 row_id
``Q`` ddl          body: SQL text (rendered statement, replayed verbatim)
``K`` checkpoint   body: u32 n, n x (u32 client_id, u32 seq) HWM pairs;
                   u64 MVCC clock; u32 m, m x (table, u64 slot count);
                   then, up to the end of the body, ordinary ``Q`` and
                   ``I`` record payloads, each prefixed by its u32 length
``F`` fence        body: empty (written by recovery: every txn open
                   before this point crashed and must be discarded)

The commit record's *origin* is the ``(client_id, seq)`` of the wire
request that drove the commit; the per-client maximum over commit
origins is the SEQUENCED **high-water mark**, which is how at-most-once
execution survives a restart that wiped the in-memory replay cache.

A checkpoint is written in the log's own records: one ``Q`` per table,
index and view, one ``I`` per live row, read back by
:func:`embedded_records` with :func:`decode_payload` — the database's
shape has one encoding, whether it sits in the log or in a checkpoint.

Strings (table names, DDL text) and rows are the wire codec's
length-prefixed strings and counted lists (:func:`repro.sqldb.wire.encode_str`,
:func:`~repro.sqldb.wire.encode_list`, which encodes a row through the
generated codec of its kind signature, the tag loop taking a subclass or
a fault); this module keeps only its record layouts.  The writer frames
each record from its payload bytes and builds no :class:`WalRecord`; a
batch INSERT's statements are logged by one call
(:meth:`WalWriter.log_inserts`), each statement's record prefix encoded
once, one disk append per record still.  So a WAL byte stream — like a
wire frame — is a pure function of the operations that produced it, and
a value the wire cannot carry is a :class:`~repro.errors.ProtocolError`
before any byte is appended.

The scanner (:func:`scan_wal`) verifies each record's CRC and framing.
Damage *at the tail* (a torn final write, a flipped bit in the last
record) ends the clean prefix — expected after a crash, recovery stops
there.  Damage *in the middle* — an invalid record with intact records
after it — raises :class:`~repro.errors.WalCorruptError` instead,
because silently stopping would drop committed work.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DurabilityError, ProtocolError, WalCorruptError
from repro.recovery.simdisk import SimDisk
from repro.sqldb.wire import (
    decode_list,
    decode_strs,
    decode_value,
    encode_list,
    encode_str,
    encode_value,
    expect_end,
)

MAGIC = 0xA5
_HEADER = struct.Struct(">BII")

#: Upper bound on one record's payload; anything larger in a header is
#: framing garbage, not a record that failed to fit.
MAX_PAYLOAD = 64 * 1024 * 1024

KIND_BEGIN = "B"
KIND_COMMIT = "C"
KIND_ABORT = "A"
KIND_INSERT = "I"
KIND_UPDATE = "U"
KIND_DELETE = "D"
KIND_DDL = "Q"
KIND_CHECKPOINT = "K"
KIND_FENCE = "F"

_KINDS = frozenset(
    (
        KIND_BEGIN,
        KIND_COMMIT,
        KIND_ABORT,
        KIND_INSERT,
        KIND_UPDATE,
        KIND_DELETE,
        KIND_DDL,
        KIND_CHECKPOINT,
        KIND_FENCE,
    )
)

Row = Tuple[Any, ...]
#: What a record's decode errors call the frame.
_FRAME = "WAL record"
#: The columns an update changed: ``(position, new value)`` pairs.
Changes = Tuple[Tuple[int, Any], ...]
#: One table a checkpoint holds: name, heap slot count, live ``(row_id, row)``.
CheckpointTable = Tuple[str, int, Iterable[Tuple[int, Row]]]


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record.

    A single carrier type keeps the scanner's output homogeneous; the
    fields beyond ``kind``/``txn_id`` are populated per kind (``table``/
    ``row_id`` for data ops, with the whole ``row`` for an insert and the
    ``changes`` — ``(column position, new value)`` pairs — for an update;
    ``sql`` for DDL, ``origin`` for commits, ``checkpoint`` for
    checkpoints).
    """

    kind: str
    txn_id: int = 0
    table: Optional[str] = None
    row_id: Optional[int] = None
    row: Optional[Row] = None
    changes: Optional[Changes] = None
    sql: Optional[str] = None
    origin: Optional[Tuple[int, int]] = None
    checkpoint: Optional["Checkpoint"] = None


@dataclass(frozen=True)
class Checkpoint:
    """A ``K`` record's body: its header, and its embedded records as
    they lie in the log (read them with :func:`embedded_records`)."""

    #: ``(client_id, seq)`` high-water marks, ascending.
    hwm: Tuple[Tuple[int, int], ...]
    #: The MVCC commit clock, so replayed commits continue the exact
    #: stamp sequence.
    clock: int
    #: ``(table, slot count)`` per table — the heap's row-id space,
    #: deleted slots included, so later row ids keep resolving.
    slots: Tuple[Tuple[str, int], ...]
    #: The length-prefixed ``Q`` and ``I`` payloads after the header.
    embedded: bytes


@dataclass
class WalScan:
    """Result of scanning a WAL byte stream.

    ``clean_length`` is the byte offset where the intact prefix ends —
    recovery truncates the disk there before appending resumes.
    ``tail_status`` is ``"clean"`` (the log ends exactly at a record
    boundary), ``"torn"`` (trailing bytes too short to be a record) or
    ``"corrupt"`` (a full-length tail record failed its CRC or framing).
    """

    records: List[WalRecord] = field(default_factory=list)
    clean_length: int = 0
    tail_status: str = "clean"
    tail_error: Optional[str] = None


# -- update deltas -----------------------------------------------------------


def row_delta(old_row: Row, new_row: Row) -> Changes:
    """The columns in which *new_row* differs from *old_row*.

    A column counts as unchanged only when both values have the same type
    and the same encoding, so ``1``/``TRUE``/``1.0`` and ``-0.0``/``0.0``
    are never conflated; logging a column that did not change is always
    correct, dropping one that did never is.
    """
    return tuple(
        (position, value)
        for position, (before, value) in enumerate(zip(old_row, new_row))
        if before is not value
        and (
            type(before) is not type(value)
            or encode_value(before) != encode_value(value)
        )
    )


def _enc_changes(changes: Changes) -> bytes:
    if len(changes) > 0xFFFF:
        raise ProtocolError("row arity exceeds the WAL limit")
    parts = [struct.pack(">H", len(changes))]
    for position, value in changes:
        parts.append(struct.pack(">H", position))
        parts.append(encode_value(value))
    return b"".join(parts)


def _dec_changes(buffer: bytes, offset: int) -> Tuple[Changes, int]:
    if offset + 2 > len(buffer):
        raise ProtocolError("truncated WAL update")
    count = struct.unpack_from(">H", buffer, offset)[0]
    offset += 2
    changes: List[Tuple[int, Any]] = []
    for __ in range(count):
        if offset + 2 > len(buffer):
            raise ProtocolError("truncated WAL update")
        position = struct.unpack_from(">H", buffer, offset)[0]
        value, offset = decode_value(buffer, offset + 2)
        changes.append((position, value))
    return tuple(changes), offset


# -- record encoding ---------------------------------------------------------
#
# The writer frames each record from its payload bytes (the payload
# functions below, :func:`_frame`); :func:`encode_record` is the same
# bytes from a :class:`WalRecord`, for tests and readers.

_pack_head = struct.Struct(">cQ").pack
_pack_u32 = struct.Struct(">I").pack
_pack_u64 = struct.Struct(">Q").pack


def _frame(payload: bytes) -> bytes:
    """A record: *payload* behind its magic, length and CRC."""
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def _head(kind: str, txn_id: int) -> bytes:
    """What every payload starts with: kind(1) | u64 txn_id — the whole
    payload of a ``B``, ``A`` or ``F`` record."""
    return _pack_head(kind.encode("ascii"), txn_id)


def _commit_payload(txn_id: int, origin: Optional[Tuple[int, int]]) -> bytes:
    if origin is None:
        return _head(KIND_COMMIT, txn_id) + b"\x00"
    return _head(KIND_COMMIT, txn_id) + b"\x01" + struct.pack(">II", *origin)


def _row_payload(head: bytes, row_id: int, row: Row) -> bytes:
    """An ``I`` payload: *head* (kind, txn id and table, built once per
    statement or per checkpointed table), the row id and the row."""
    parts = [head, _pack_u64(row_id)]
    encode_list(row, parts)
    return b"".join(parts)


def _update_payload(txn_id: int, table: str, row_id: int, changes: Changes) -> bytes:
    return (
        _head(KIND_UPDATE, txn_id) + encode_str(table) + _pack_u64(row_id) + _enc_changes(changes)
    )


def _delete_payload(txn_id: int, table: str, row_id: int) -> bytes:
    return _head(KIND_DELETE, txn_id) + encode_str(table) + _pack_u64(row_id)


def _checkpoint_payload(txn_id: int, checkpoint: Checkpoint) -> bytes:
    """A ``K`` payload, less its embedded records."""
    parts = [_head(KIND_CHECKPOINT, txn_id), _pack_u32(len(checkpoint.hwm))]
    parts.extend(struct.pack(">II", *pair) for pair in checkpoint.hwm)
    parts.append(struct.pack(">QI", checkpoint.clock, len(checkpoint.slots)))
    for table, count in checkpoint.slots:
        parts.append(encode_str(table) + _pack_u64(count))
    return b"".join(parts)


def _frame_checkpoint(payload: bytes, embedded: bytes) -> bytes:
    """A ``K`` record.  Its embedded records are framed where they lie,
    not first copied into one payload: the checkpoint is the one record
    as large as the database."""
    crc = zlib.crc32(embedded, zlib.crc32(payload))
    header = _HEADER.pack(MAGIC, len(payload) + len(embedded), crc)
    return b"".join((header, payload, embedded))


def encode_record(record: WalRecord) -> bytes:
    """Encode one record, CRC frame included."""
    payload = _encode_payload(record)
    if record.checkpoint is None:
        return _frame(payload)
    return _frame_checkpoint(payload, record.checkpoint.embedded)


def _encode_payload(record: WalRecord) -> bytes:
    """The payload of *record*, less a checkpoint's embedded records."""
    kind, txn_id = record.kind, record.txn_id
    if kind in (KIND_BEGIN, KIND_ABORT, KIND_FENCE):
        return _head(kind, txn_id)
    if kind == KIND_COMMIT:
        return _commit_payload(txn_id, record.origin)
    if kind == KIND_CHECKPOINT:
        assert record.checkpoint is not None
        return _checkpoint_payload(txn_id, record.checkpoint)
    if kind == KIND_DDL:
        assert record.sql is not None
        return _head(kind, txn_id) + encode_str(record.sql)
    if kind not in (KIND_INSERT, KIND_UPDATE, KIND_DELETE):
        raise ProtocolError(f"unknown WAL record kind {kind!r}")
    table, row_id = record.table, record.row_id
    assert table is not None and row_id is not None
    if kind == KIND_INSERT:
        assert record.row is not None
        return _row_payload(_head(kind, txn_id) + encode_str(table), row_id, record.row)
    if kind == KIND_UPDATE:
        assert record.changes is not None
        return _update_payload(txn_id, table, row_id, record.changes)
    return _delete_payload(txn_id, table, row_id)


def decode_payload(payload: bytes) -> WalRecord:
    """Decode one record payload (the bytes the CRC covers)."""
    if len(payload) < 9:
        raise ProtocolError("WAL payload shorter than its fixed header")
    kind = chr(payload[0])
    if kind not in _KINDS:
        raise ProtocolError(f"unknown WAL record kind {payload[0]:#x}")
    txn_id = struct.unpack_from(">Q", payload, 1)[0]
    offset = 9
    if kind in (KIND_BEGIN, KIND_ABORT, KIND_FENCE):
        expect_end(payload, offset, _FRAME)
        return WalRecord(kind=kind, txn_id=txn_id)
    if kind == KIND_COMMIT:
        if offset >= len(payload):
            raise ProtocolError("truncated commit record")
        flag = payload[offset]
        offset += 1
        origin: Optional[Tuple[int, int]] = None
        if flag == 1:
            if offset + 8 > len(payload):
                raise ProtocolError("truncated commit origin")
            client_id, seq = struct.unpack_from(">II", payload, offset)
            origin = (client_id, seq)
            offset += 8
        elif flag != 0:
            raise ProtocolError(f"invalid commit origin flag {flag:#x}")
        expect_end(payload, offset, _FRAME)
        return WalRecord(kind=kind, txn_id=txn_id, origin=origin)
    if kind in (KIND_INSERT, KIND_UPDATE, KIND_DELETE):
        (table,), offset = decode_strs(payload, offset, 1, _FRAME)
        if offset + 8 > len(payload):
            raise ProtocolError("truncated WAL row id")
        row_id = struct.unpack_from(">Q", payload, offset)[0]
        offset += 8
        if kind == KIND_INSERT:
            row, offset = decode_list(payload, offset, _FRAME)
            expect_end(payload, offset, _FRAME)
            return WalRecord(
                kind=kind, txn_id=txn_id, table=table, row_id=row_id, row=tuple(row)
            )
        if kind == KIND_UPDATE:
            changes, offset = _dec_changes(payload, offset)
            expect_end(payload, offset, _FRAME)
            return WalRecord(
                kind=kind, txn_id=txn_id, table=table, row_id=row_id, changes=changes
            )
        expect_end(payload, offset, _FRAME)
        return WalRecord(kind=kind, txn_id=txn_id, table=table, row_id=row_id)
    if kind == KIND_DDL:
        (sql,), offset = decode_strs(payload, offset, 1, _FRAME)
        expect_end(payload, offset, _FRAME)
        return WalRecord(kind=kind, txn_id=txn_id, sql=sql)
    # KIND_CHECKPOINT: the header; the embedded records stay bytes until
    # replay reads them one at a time.
    def _u(fmt: str, size: int) -> int:
        nonlocal offset
        if offset + size > len(payload):
            raise ProtocolError("truncated checkpoint header")
        value = struct.unpack_from(fmt, payload, offset)[0]
        offset += size
        return int(value)

    hwm = tuple((_u(">I", 4), _u(">I", 4)) for __ in range(_u(">I", 4)))
    clock = _u(">Q", 8)
    slots: List[Tuple[str, int]] = []
    for __ in range(_u(">I", 4)):
        (table,), offset = decode_strs(payload, offset, 1, _FRAME)
        slots.append((table, _u(">Q", 8)))
    checkpoint = Checkpoint(hwm, clock, tuple(slots), payload[offset:])
    return WalRecord(kind=kind, txn_id=txn_id, checkpoint=checkpoint)


# -- checkpoints -------------------------------------------------------------


def checkpoint_record(
    hwm: Dict[int, int],
    clock: int,
    ddl: Iterable[str],
    tables: Iterable[CheckpointTable],
) -> WalRecord:
    """A ``K`` record: one ``Q`` per statement of *ddl*, then one ``I``
    per ``(row_id, row)`` of each ``(table, slot count, rows)`` in
    *tables*, behind the header (see :func:`_checkpoint`)."""
    return WalRecord(kind=KIND_CHECKPOINT, checkpoint=_checkpoint(hwm, clock, ddl, tables))


def _checkpoint(
    hwm: Dict[int, int],
    clock: int,
    ddl: Iterable[str],
    tables: Iterable[CheckpointTable],
) -> Checkpoint:
    """A ``K`` record's body.  Each row's payload is the one
    :func:`encode_record` writes for ``WalRecord(kind="I", table=...,
    row_id=..., row=...)``, its fixed prefix encoded once per table
    rather than once per row (:func:`_row_payload`, inline: a row costs
    three calls, not four)."""
    embedded = bytearray()
    for sql in ddl:
        payload = _head(KIND_DDL, 0) + encode_str(sql)
        embedded += _pack_u32(len(payload))
        embedded += payload
    slots: List[Tuple[str, int]] = []
    for table, count, rows in tables:
        slots.append((table, count))
        head = _head(KIND_INSERT, 0) + encode_str(table)
        for row_id, row in rows:
            parts = [head, _pack_u64(row_id)]
            encode_list(row, parts)
            payload = b"".join(parts)
            embedded += _pack_u32(len(payload))
            embedded += payload
    return Checkpoint(tuple(sorted(hwm.items())), clock, tuple(slots), bytes(embedded))


def embedded_records(checkpoint: Checkpoint) -> Iterator[WalRecord]:
    """Decode a checkpoint's embedded records, one at a time.

    The checkpoint passed its CRC, so an embedded record that does not
    decode is not a torn tail but a damaged log:
    :class:`~repro.errors.WalCorruptError`.
    """
    body = checkpoint.embedded
    offset = 0
    while offset < len(body):
        start = offset + 4
        if start > len(body):
            raise WalCorruptError("damaged checkpoint: truncated record length")
        end = start + struct.unpack_from(">I", body, offset)[0]
        if end > len(body):
            raise WalCorruptError("damaged checkpoint: truncated record")
        try:
            record = decode_payload(body[start:end])
        except ProtocolError as exc:
            raise WalCorruptError(f"damaged checkpoint: {exc}") from None
        yield record
        offset = end


# -- scanning ----------------------------------------------------------------


def _try_record(data: bytes, offset: int) -> Tuple[Optional[WalRecord], int, str]:
    """Parse the record at *offset*.

    Returns ``(record, next_offset, "")`` on success, else
    ``(None, offset, status)`` where status is ``"torn"`` (not enough
    bytes for what the header promises) or ``"corrupt"`` (bad magic,
    absurd length, CRC mismatch, or an undecodable payload).
    """
    remaining = len(data) - offset
    if remaining < _HEADER.size:
        return None, offset, "torn"
    magic, length, crc = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        return None, offset, "corrupt"
    if length > MAX_PAYLOAD:
        return None, offset, "corrupt"
    start = offset + _HEADER.size
    if start + length > len(data):
        return None, offset, "torn"
    payload = bytes(data[start : start + length])
    if zlib.crc32(payload) != crc:
        return None, offset, "corrupt"
    try:
        record = decode_payload(payload)
    except ProtocolError:
        return None, offset, "corrupt"
    return record, start + length, ""


def scan_wal(data: bytes) -> WalScan:
    """Scan a WAL byte stream into its clean prefix of records.

    Damage followed by any intact record raises
    :class:`~repro.errors.WalCorruptError` — the damage is *in the
    middle* of the log and recovering only the prefix would silently
    lose the committed work behind it.  Damage with nothing valid after
    it is an ordinary crash tail: the scan stops cleanly and reports how
    the tail died.
    """
    scan = WalScan()
    offset = 0
    while offset < len(data):
        record, next_offset, status = _try_record(data, offset)
        if record is None:
            scan.tail_status = status
            scan.tail_error = (
                f"{status} record at offset {offset} "
                f"({len(data) - offset} trailing bytes)"
            )
            resync = _find_valid_record_after(data, offset)
            if resync is not None:
                raise WalCorruptError(
                    f"WAL damaged mid-log: {scan.tail_error}, but an "
                    f"intact record follows at offset {resync} — "
                    f"refusing to silently drop it"
                )
            break
        scan.records.append(record)
        offset = next_offset
    scan.clean_length = offset
    return scan


def _find_valid_record_after(data: bytes, failed_at: int) -> Optional[int]:
    """First offset past *failed_at* where an intact record parses.

    The resync probe behind the mid-log check: a hit means the damage is
    mid-log.  Probing is bounded to candidate magic bytes, so garbage
    tails cost one linear pass.
    """
    offset = data.find(MAGIC.to_bytes(1, "big"), failed_at + 1)
    while offset != -1:
        record, __, __status = _try_record(data, offset)
        if record is not None:
            return offset
        offset = data.find(MAGIC.to_bytes(1, "big"), offset + 1)
    return None


# -- the writer --------------------------------------------------------------


class WalWriter:
    """Appends records for one database's mutations to a disk.

    ``BEGIN`` is written lazily before a transaction's first logged
    operation, so read-only transactions cost zero appends.  ``commit``
    and ``abort`` are no-ops for transactions that never wrote.

    After the disk crashes, every logging call silently does nothing:
    writes that follow a power loss are lost by definition, and the
    server is about to find out via the :class:`~repro.errors.DiskCrashed`
    that the crashing append already raised.

    The writer also maintains the running per-client high-water mark
    (``hwm``) over commit origins — the in-memory twin of what recovery
    reconstructs from the log.
    """

    def __init__(self, disk: SimDisk) -> None:
        self.disk = disk
        #: Transactions whose BEGIN has been written and COMMIT has not.
        self._begun: Dict[int, bool] = {}
        #: (client_id, seq) of the wire request currently being handled;
        #: stamped onto commit records for the durable high-water mark.
        self.origin: Optional[Tuple[int, int]] = None
        #: client_id -> highest sequence number whose request committed.
        self.hwm: Dict[int, int] = {}
        self.statistics = {"appends": 0, "commits": 0, "aborts": 0, "checkpoints": 0}

    @property
    def appends(self) -> int:
        return self.statistics["appends"]

    def _append(self, payload: bytes) -> None:
        """Frame a record's *payload* and append it: one disk append."""
        if not self.disk.crashed:
            self.disk.append(_frame(payload))
            self.statistics["appends"] += 1

    def _log(self, txn_id: int, payload: bytes) -> None:
        """Append a data record, behind its transaction's BEGIN when it
        is the first.  The caller encodes the payload before anything is
        written: a value the log refuses (:class:`ProtocolError`) leaves
        no byte behind, not even the BEGIN."""
        if txn_id not in self._begun:
            self._begun[txn_id] = True
            self._append(_head(KIND_BEGIN, txn_id))
        self._append(payload)

    # -- logging hooks ------------------------------------------------------
    #
    # The storage calls these *before* it changes the heap or an index
    # (``TableStorage`` journals first), so a refused value never reaches
    # memory either.

    def log_insert(self, txn_id: int, table: str, row_id: int, row: Row) -> None:
        head = _head(KIND_INSERT, txn_id) + encode_str(table)
        self._log(txn_id, _row_payload(head, row_id, row))

    def log_inserts(
        self,
        table: str,
        rows: Sequence[Row],
        start: int,
        statements: Iterable[Tuple[int, int]],
        next_txn: Callable[[], int],
        autocommit: bool,
    ) -> Optional[Tuple[int, int, bool, Exception]]:
        """Log INSERT statements before their rows are placed: for each
        ``(begin, end)`` of *statements*, under the WAL transaction
        ``next_txn()`` gives it, the ``I`` record of each ``rows[i]`` (for
        slot ``start + i``) and, when *autocommit*, its COMMIT — the
        records and appends of :meth:`log_insert` per row and
        :meth:`commit`, with the kind, txn id and table encoded once per
        statement.

        Returns None when every statement was logged.  Otherwise
        ``(placed, timed, cut, error)``: the rows that stay, the end of
        the statements that committed, whether the last statement was
        cut short, and why — cut where the log refused a record (that
        statement still commits with the rows before it), or, uncut, a
        commit the disk lost (its rows stay, past *timed*).
        """
        name = encode_str(table)
        stop: Optional[Tuple[int, int, bool, Exception]] = None
        for begin, end in statements:
            txn_id = next_txn()
            head = _head(KIND_INSERT, txn_id) + name
            try:
                for at in range(begin, end):
                    self._log(txn_id, _row_payload(head, start + at, rows[at]))
                at = end
            except Exception as exc:  # a record the log refuses
                stop = (at, at, True, exc)
            try:
                # Committed even when the statement raised: its rows
                # before the refused one stay in memory.
                if autocommit:
                    self.commit(txn_id)
            except Exception as exc:  # the disk died on it
                return at, begin, False, exc
            if stop is not None:  # no statement after it runs
                return stop
        return None

    def log_update(
        self, txn_id: int, table: str, row_id: int, old_row: Row, new_row: Row
    ) -> None:
        """Log what the update changed (:func:`row_delta`).  An update
        that changed nothing still logs its (empty) record, so replay
        bumps the same counters the original execution did."""
        self._log(txn_id, _update_payload(txn_id, table, row_id, row_delta(old_row, new_row)))

    def log_delete(self, txn_id: int, table: str, row_id: int) -> None:
        self._log(txn_id, _delete_payload(txn_id, table, row_id))

    @staticmethod
    def ddl_record(sql: str) -> bytes:
        """The ``Q`` payload of *sql*.  Encode it before the catalog
        changes — text the log cannot hold is a :class:`ProtocolError`
        there — and append it with :meth:`log_ddl` after."""
        return _head(KIND_DDL, 0) + encode_str(sql)

    def log_ddl(self, record: bytes) -> None:
        """Append a :meth:`ddl_record`.  DDL is durable immediately: it is
        rejected inside transactions by the engine, so there is nothing
        to buffer or undo."""
        self._append(record)

    def commit(self, txn_id: int) -> None:
        if self._begun.pop(txn_id, None) is None:
            return  # read-only transaction: nothing was logged
        origin = self.origin
        self._append(_commit_payload(txn_id, origin))
        self.statistics["commits"] += 1
        if origin is not None:
            client_id, seq = origin
            if seq > self.hwm.get(client_id, 0):
                self.hwm[client_id] = seq

    def abort(self, txn_id: int) -> None:
        if self._begun.pop(txn_id, None) is None:
            return
        self._append(_head(KIND_ABORT, txn_id))
        self.statistics["aborts"] += 1

    def fence(self) -> None:
        """Mark a recovery boundary: transactions open before this point
        died with the crash and must never merge with post-restart
        transactions that happen to reuse their ids."""
        self._begun.clear()
        self._append(_head(KIND_FENCE, 0))

    def checkpoint(
        self,
        clock: int,
        ddl: Iterable[str],
        tables: Iterable[CheckpointTable],
    ) -> None:
        """Append a checkpoint (see :func:`checkpoint_record`) carrying
        this writer's high-water marks, then drop the log before it:
        recovery starts from the last checkpoint, so that prefix is dead.

        A crash on the append itself raises before the cut and leaves the
        old log whole.  So does a record too large to be read back — the
        scanner would take it for framing garbage and cut it off — which
        is refused before anything is written.  The body is dropped once
        framed, so that only the record's bytes, not a second copy of the
        database, are alive while the disk grows.
        """
        body = _checkpoint(self.hwm, clock, ddl, tables)
        framed = _frame_checkpoint(_checkpoint_payload(0, body), body.embedded)
        del body
        if len(framed) - _HEADER.size > MAX_PAYLOAD:
            raise DurabilityError(
                f"checkpoint of {len(framed) - _HEADER.size} bytes exceeds "
                f"the {MAX_PAYLOAD}-byte record limit; the log is kept whole"
            )
        if not self.disk.crashed:
            start = self.disk.size
            self.disk.append(framed)
            self.statistics["appends"] += 1
            self.disk.drop_prefix(start)
        self.statistics["checkpoints"] += 1
