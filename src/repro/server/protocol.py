"""Request/response envelopes for the client/server protocol.

An envelope is ``opcode (1 byte) + body``.  Strings, counted value lists
and statement bodies are :mod:`repro.sqldb.wire`'s; this module owns only
the envelope and opcode tables, the SEQUENCED header and CRC, the session
operand, the batch counts and entry kinds, and the STATS pairing.  A
CALL_PROCEDURE body *is* a statement body (the name in place of the SQL
text, the arguments in place of the parameters), an ERROR body is two
strings — the error class name and message, so the client can re-raise a
faithful exception — and a value-list body is one counted list.

The BATCH opcode ships N statements in one request and N per-statement
entries in one response — the pipelined middle ground between "one query
per node" and "one query per tree".  Each response entry is individually
either a result set or an error, so a failing statement costs only its
own slot, never the whole batch.
"""

from __future__ import annotations

import struct
import zlib
from enum import IntEnum
from typing import Any, List, Sequence, Tuple

from repro.errors import ProtocolError
from repro.sqldb import wire


class Opcode(IntEnum):
    """First byte of every envelope."""

    QUERY = 1
    CALL_PROCEDURE = 2
    PING = 3
    BATCH = 4
    STATS = 5
    SEQUENCED = 6
    OPEN_SESSION = 7
    CLOSE_SESSION = 8
    TXN_BEGIN = 9
    TXN_COMMIT = 10
    TXN_ROLLBACK = 11
    #: BEGIN READ ONLY: the transaction rejects DML and its reads go to a
    #: snapshot (no locks).
    TXN_BEGIN_RO = 12
    RESULT = 16
    PROCEDURE_RESULT = 17
    PONG = 18
    BATCH_RESULT = 19
    STATS_RESULT = 20
    SEQUENCED_RESULT = 21
    SESSION_RESULT = 22
    TXN_RESULT = 23
    ERROR = 32


#: Opcodes whose request body is a bare session operand (u32 client id).
SESSION_OPCODES = frozenset(
    {
        Opcode.OPEN_SESSION,
        Opcode.CLOSE_SESSION,
        Opcode.TXN_BEGIN,
        Opcode.TXN_BEGIN_RO,
        Opcode.TXN_COMMIT,
        Opcode.TXN_ROLLBACK,
    }
)


#: Entry kinds inside a BATCH_RESULT body.
BATCH_ENTRY_RESULT = 0
BATCH_ENTRY_ERROR = 1


#: The envelope's first byte, both ways, looked up instead of built: an
#: ``Opcode(...)`` construction or a ``.name`` read is a Python-level
#: call, and every round trip makes several.
_OPCODE_BYTE = {opcode: bytes([opcode]) for opcode in Opcode}
_OPCODE_OF_BYTE = {int(opcode): opcode for opcode in Opcode}
_OPCODE_NAME_OF_BYTE = {int(opcode): opcode.name for opcode in Opcode}

#: First byte of a SEQUENCED request, for the server's pre-decode test.
SEQUENCED_BYTE = _OPCODE_BYTE[Opcode.SEQUENCED]


def encode_envelope(opcode: Opcode, body: bytes = b"") -> bytes:
    return _OPCODE_BYTE[opcode] + body


def decode_envelope(frame: bytes) -> Tuple[Opcode, bytes]:
    if not frame:
        raise ProtocolError("empty frame")
    opcode = _OPCODE_OF_BYTE.get(frame[0])
    if opcode is None:
        raise ProtocolError(f"unknown opcode {frame[0]}")
    return opcode, frame[1:]


def opcode_label(frame: bytes) -> str:
    """Opcode name of *frame* for traffic attribution and span metadata;
    ``"UNKNOWN"`` for an empty frame or a byte that is no opcode."""
    if not frame:
        return "UNKNOWN"
    return _OPCODE_NAME_OF_BYTE.get(frame[0], "UNKNOWN")


def encode_sequenced(client_id: int, seq: int, inner: bytes) -> bytes:
    """Body of a SEQUENCED request / SEQUENCED_RESULT response.

    ``client id (u32) + sequence number (u32) + CRC-32 of inner (u32) +
    inner envelope``.  The (client, seq) pair keys the server's replay
    cache — a retransmitted request is answered from cache instead of
    being re-executed, which makes retrying any statement (UPDATEs
    included) safe.  The CRC lets both sides detect bit flips and
    truncation injected by a lossy link.
    """
    if not 0 <= client_id <= 0xFFFFFFFF or not 0 <= seq <= 0xFFFFFFFF:
        raise ProtocolError("client id and sequence number must fit in u32")
    return struct.pack(">III", client_id, seq, zlib.crc32(inner)) + inner


def decode_sequenced(body: bytes) -> Tuple[int, int, bytes]:
    """Decode and integrity-check a sequenced body.

    Raises :class:`ProtocolError` on truncation or CRC mismatch — the
    caller decides whether that means "answer with a retriable error
    frame" (server) or "treat as loss and retry" (client).
    """
    if len(body) < 12:
        raise ProtocolError("truncated sequenced frame")
    client_id, seq, checksum = struct.unpack_from(">III", body, 0)
    inner = body[12:]
    if zlib.crc32(inner) != checksum:
        raise ProtocolError("sequenced frame failed its CRC check")
    return client_id, seq, inner


def encode_session_op(client_id: int) -> bytes:
    """Body of the five session/transaction opcodes: ``client id (u32)``.

    The client id is stated explicitly (rather than inferred from a
    SEQUENCED wrapper) so session frames stay valid on bare, non-resilient
    connections too.
    """
    if not 0 <= client_id <= 0xFFFFFFFF:
        raise ProtocolError("client id must fit in u32")
    return struct.pack(">I", client_id)


def decode_session_op(body: bytes) -> int:
    if len(body) != 4:
        raise ProtocolError("session frame body must be exactly 4 bytes")
    return struct.unpack(">I", body)[0]


#: A CALL_PROCEDURE body is a statement body: the procedure's name in
#: place of the SQL text, its arguments in place of the parameters.
encode_procedure_call = wire.encode_query


def decode_procedure_call(body: bytes) -> Tuple[str, List[Any]]:
    return wire.decode_query(body, "procedure-call")


def encode_batch(statements: Sequence[Tuple[str, Sequence[Any]]]) -> bytes:
    """Body of a BATCH request: ``u16 count`` + one statement body each."""
    if len(statements) > 0xFFFF:
        raise ProtocolError("too many statements in batch")
    parts = [struct.pack(">H", len(statements))]
    for sql, params in statements:
        parts.append(wire.encode_query(sql, params))
    return b"".join(parts)


def decode_batch(body: bytes) -> List[Tuple[str, List[Any]]]:
    if len(body) < 2:
        raise ProtocolError("truncated batch frame")
    offset = 2
    statements: List[Tuple[str, List[Any]]] = []
    for __ in range(struct.unpack_from(">H", body, 0)[0]):
        sql, params, offset = wire.decode_statement(body, offset, "batch")
        statements.append((sql, params))
    wire.expect_end(body, offset, "batch")
    return statements


def encode_batch_result(entries: Sequence[Tuple[int, bytes]]) -> bytes:
    """Body of a BATCH_RESULT response.

    Each entry is ``(kind, payload)`` where kind is BATCH_ENTRY_RESULT
    (payload = an encoded result set) or BATCH_ENTRY_ERROR (payload = an
    encoded error frame).  Entries are length-prefixed so the decoder can
    hand each payload to the matching sub-decoder.
    """
    if len(entries) > 0xFFFF:
        raise ProtocolError("too many entries in batch result")
    parts = [struct.pack(">H", len(entries))]
    for kind, payload in entries:
        if kind not in (BATCH_ENTRY_RESULT, BATCH_ENTRY_ERROR):
            raise ProtocolError(f"invalid batch entry kind {kind}")
        parts.append(struct.pack(">BI", kind, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_batch_result(body: bytes) -> List[Tuple[int, bytes]]:
    if len(body) < 2:
        raise ProtocolError("truncated batch-result frame")
    count = struct.unpack_from(">H", body, 0)[0]
    offset = 2
    entries: List[Tuple[int, bytes]] = []
    for __ in range(count):
        if offset + 5 > len(body):
            raise ProtocolError("truncated batch-result frame")
        kind, length = struct.unpack_from(">BI", body, offset)
        offset += 5
        if kind not in (BATCH_ENTRY_RESULT, BATCH_ENTRY_ERROR):
            raise ProtocolError(f"invalid batch entry kind {kind}")
        if offset + length > len(body):
            raise ProtocolError("truncated batch-result frame")
        entries.append((kind, body[offset : offset + length]))
        offset += length
    wire.expect_end(body, offset, "batch-result")
    return entries


def encode_stats(counters: dict) -> bytes:
    """Body of a STATS_RESULT response: a flat (name, value) list."""
    values: List[Any] = []
    for name in sorted(counters):
        values.append(str(name))
        values.append(counters[name])
    return encode_values(values)


def decode_stats(body: bytes) -> dict:
    values = decode_values(body)
    if len(values) % 2 != 0:
        raise ProtocolError("stats frame holds an odd number of values")
    counters = {}
    for position in range(0, len(values), 2):
        name = values[position]
        if not isinstance(name, str):
            raise ProtocolError("stats counter name is not a string")
        counters[name] = values[position + 1]
    return counters


def encode_error(error: Exception) -> bytes:
    """Body of an ERROR response: the error's class name and message.

    A message UTF-8 cannot carry (a lone surrogate from stored text) is
    sent escaped, so an error always reaches the client as an error.
    """
    kind = wire.encode_str(type(error).__name__)
    try:
        return kind + wire.encode_str(str(error))
    except ProtocolError:
        return kind + wire.encode_str(ascii(str(error)))


def decode_error(body: bytes) -> Tuple[str, str]:
    (kind, message), offset = wire.decode_strs(body, 0, 2, "error")
    wire.expect_end(body, offset, "error")
    return kind, message


def encode_values(values: Sequence[Any]) -> bytes:
    """Body of a PROCEDURE_RESULT response (a counted list)."""
    parts: List[bytes] = []
    wire.encode_list(values, parts)
    return b"".join(parts)


def decode_values(body: bytes) -> List[Any]:
    values, offset = wire.decode_list(body, 0, "value-list")
    wire.expect_end(body, offset, "value-list")
    return values
