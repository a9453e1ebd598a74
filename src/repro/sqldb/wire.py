"""Binary wire encoding of requests and result sets.

The experiments measure *bytes on the wire*, so the client/server stack
serialises queries and results with this small, deterministic format
instead of guessing sizes.  The format is deliberately close to what a
real DBMS wire protocol produces for the paper's schema: small per-value
type tags, length-prefixed strings, 8-byte integers.

Layout (big-endian):

* string     = u32-len + utf8
* value      = tag(1) + payload:  N=null, I=int64, D=float64, B=bool(1),
  S=string
* list       = u16 count + values (a counted list)
* statement  = string + list: SQL text and its parameters, or a
  procedure's name and its arguments
* response   = u16 column count, columns as strings, u32 row count, rows
  as values, u32 rowcount

This module is the one owner of that format: ``server.protocol`` builds
its envelopes, and ``recovery.wal`` its log records, from these strings,
lists and statement bodies, with one set of bounds checks.  Malformed
input raises :class:`ProtocolError` naming the frame being decoded, and
so does a value the format cannot carry (text UTF-8 cannot encode, an
integer outside int64, a list past 65 535 values).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Any, Iterable, List, Sequence, Tuple

from repro.errors import ProtocolError
from repro.sqldb.result import ResultSet

#: The tag table: one byte in front of every value.
_TAG_NULL = b"N"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_BOOL = b"B"
_TAG_STR = b"S"
_NULL, _INT, _FLOAT, _BOOL, _STR = (
    tag[0] for tag in (_TAG_NULL, _TAG_INT, _TAG_FLOAT, _TAG_BOOL, _TAG_STR)
)
_FALSE, _TRUE = _TAG_BOOL + b"\x00", _TAG_BOOL + b"\x01"

#: The wire integer type is a signed 64-bit big-endian word; Python ints
#: outside this range must fail as a protocol error (an ERROR envelope),
#: never as a bare ``struct.error`` that would kill the server.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_pack_int = struct.Struct(">cq").pack
_pack_float = struct.Struct(">cd").pack
_pack_str = struct.Struct(">cI").pack
_pack_u16 = struct.Struct(">H").pack
_pack_u32 = struct.Struct(">I").pack
_unpack_int = struct.Struct(">q").unpack_from
_unpack_float = struct.Struct(">d").unpack_from
_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from

#: Types the encoder dispatches on by identity; anything else is a
#: subclass (``IntEnum``, a ``str`` mix-in) or not a wire value at all.
_WIRE_TYPES = frozenset((type(None), bool, int, float, str))


def _base_type(value: Any) -> type:
    """Wire type of a value whose exact type is none of the five: the
    first match in the codec's historical ``isinstance`` order."""
    for base in (bool, int, float, str):
        if isinstance(value, base):
            return base
    raise ProtocolError(f"cannot encode value of type {type(value).__name__}")


def encode_run(values: Iterable[Any], parts: List[bytes]) -> None:
    """Append the encoding of every value of *values* to *parts*.

    The one encoder of the tag table: a row, a parameter list, a
    procedure's argument list and a WAL row are all runs of values, and
    each is encoded by one pass of this loop — no call per value.
    """
    append = parts.append
    try:
        for value in values:
            kind = type(value)
            if kind not in _WIRE_TYPES:
                kind = _base_type(value)
            if kind is str:
                payload = value.encode("utf-8")
                append(_pack_str(_TAG_STR, len(payload)))
                append(payload)
            elif kind is int:
                if not INT64_MIN <= value <= INT64_MAX:
                    raise ProtocolError(
                        f"integer {value} is outside the int64 wire range"
                    )
                append(_pack_int(_TAG_INT, value))
            elif value is None:
                append(_TAG_NULL)
            elif kind is float:
                append(_pack_float(_TAG_FLOAT, value))
            else:
                append(_TRUE if value else _FALSE)
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise _unencodable(exc) from None


def decode_run(buffer: bytes, offset: int, count: int) -> Tuple[List[Any], int]:
    """Decode *count* values starting at *offset*; return (values, next
    offset).  The one decoder of the tag table (see :func:`encode_run`)."""
    end = len(buffer)
    values: List[Any] = []
    append = values.append
    for __ in range(count):
        if offset >= end:
            raise ProtocolError("truncated value frame")
        tag = buffer[offset]
        offset += 1
        if tag == _STR:
            if offset + 4 > end:
                raise ProtocolError("truncated value frame")
            start = offset + 4
            offset = start + _unpack_u32(buffer, offset)[0]
            if offset > end:
                raise ProtocolError("truncated value frame")
            try:
                append(buffer[start:offset].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"invalid UTF-8 in frame: {exc}") from None
        elif tag == _INT:
            if offset + 8 > end:
                raise ProtocolError("truncated value frame")
            append(_unpack_int(buffer, offset)[0])
            offset += 8
        elif tag == _NULL:
            append(None)
        elif tag == _FLOAT:
            if offset + 8 > end:
                raise ProtocolError("truncated value frame")
            append(_unpack_float(buffer, offset)[0])
            offset += 8
        elif tag == _BOOL:
            if offset >= end:
                raise ProtocolError("truncated value frame")
            append(buffer[offset] != 0)
            offset += 1
        else:
            raise ProtocolError(
                f"unknown value tag {buffer[offset - 1 : offset]!r}"
            )
    return values, offset


def encode_value(value: Any) -> bytes:
    """Encode one SQL value."""
    parts: List[bytes] = []
    encode_run((value,), parts)
    return b"".join(parts)


def decode_value(buffer: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value at *offset*; return (value, next offset)."""
    values, offset = decode_run(buffer, offset, 1)
    return values[0], offset


# -- strings, counted lists, statement bodies ------------------------------
#
# What every frame and every WAL record is built from.  A decode error
# names the frame it was decoding (*frame*).

#: Most values a counted list (u16 count) holds.
_MAX_COUNT = 0xFFFF


def _unencodable(exc: UnicodeEncodeError) -> ProtocolError:
    return ProtocolError(f"text cannot be encoded as UTF-8: {exc}")


def _too_long(count: int) -> ProtocolError:
    return ProtocolError(f"a list of {count} values is too long for its u16 count")


def encode_str(text: str) -> bytes:
    """A length-prefixed string: u32 length + UTF-8."""
    try:
        payload = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _unencodable(exc) from None
    return _pack_u32(len(payload)) + payload


def decode_strs(
    buffer: bytes, offset: int, count: int, frame: str = "value"
) -> Tuple[List[str], int]:
    """Decode *count* length-prefixed strings starting at *offset*;
    return (strings, next offset)."""
    end = len(buffer)
    texts: List[str] = []
    for __ in range(count):
        if offset + 4 > end:
            raise ProtocolError(f"truncated {frame} frame")
        start = offset + 4
        offset = start + _unpack_u32(buffer, offset)[0]
        if offset > end:
            raise ProtocolError(f"truncated {frame} frame")
        try:
            texts.append(buffer[start:offset].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in {frame} frame: {exc}") from None
    return texts, offset


def encode_list(values: Sequence[Any], parts: List[bytes]) -> None:
    """Append a counted list — u16 count + run of values — to *parts*."""
    if len(values) > _MAX_COUNT:
        raise _too_long(len(values))
    parts.append(_pack_u16(len(values)))
    encode_run(values, parts)


def decode_list(buffer: bytes, offset: int, frame: str) -> Tuple[List[Any], int]:
    """Decode a counted list at *offset*; return (values, next offset)."""
    if offset + 2 > len(buffer):
        raise ProtocolError(f"truncated {frame} frame")
    return decode_run(buffer, offset + 2, _unpack_u16(buffer, offset)[0])


def expect_end(buffer: bytes, offset: int, frame: str) -> None:
    """The trailing-bytes check: *frame* ends at *offset*."""
    if offset != len(buffer):
        raise ProtocolError(f"trailing bytes after {frame} frame")


def encode_query(sql: str, params: Sequence[Any] = ()) -> bytes:
    """Encode a statement body: a string and a counted list (SQL text and
    parameters, or a procedure's name and arguments).  It runs on every
    round trip, so it calls the run codec directly, as its decoders do."""
    if len(params) > _MAX_COUNT:
        raise _too_long(len(params))
    parts = [encode_str(sql), _pack_u16(len(params))]
    encode_run(params, parts)
    return b"".join(parts)


def decode_statement(
    buffer: bytes, offset: int, frame: str
) -> Tuple[str, List[Any], int]:
    """Decode a statement body at *offset*; return (text, values, next
    offset)."""
    (text,), offset = decode_strs(buffer, offset, 1, frame)
    if offset + 2 > len(buffer):
        raise ProtocolError(f"truncated {frame} frame")
    values, offset = decode_run(buffer, offset + 2, _unpack_u16(buffer, offset)[0])
    return text, values, offset


def decode_query(buffer: bytes, frame: str = "query") -> Tuple[str, List[Any]]:
    """Decode a frame that is exactly one statement body."""
    text, values, offset = decode_statement(buffer, 0, frame)
    if offset != len(buffer):  # expect_end, inline on the per-request path
        raise ProtocolError(f"trailing bytes after {frame} frame")
    return text, values


@lru_cache(maxsize=256)
def _encode_header(columns: Tuple[str, ...]) -> bytes:
    """Column count + names of a result frame.  A cached plan answers
    with the same column tuple every time, so the header is encoded once
    per shape, not once per result; the memo holds names only."""
    if len(columns) > _MAX_COUNT:
        raise ProtocolError("too many columns")
    return _pack_u16(len(columns)) + b"".join(map(encode_str, columns))


@lru_cache(maxsize=256)
def _header_columns(header: bytes) -> Tuple[str, ...]:
    """Inverse of :func:`_encode_header`, remembered the same way: the
    client of a cached plan meets the same header bytes every time."""
    return tuple(decode_strs(header, 2, _unpack_u16(header, 0)[0])[0])


def _decode_header(buffer: bytes) -> Tuple[Sequence[str], int]:
    """Column names of a result frame and the offset just past them."""
    end = len(buffer)
    if end < 2:
        raise ProtocolError("truncated value frame")
    width = _unpack_u16(buffer, 0)[0]
    offset = 2
    for __ in range(width):
        if offset + 4 > end:
            break
        offset += 4 + _unpack_u32(buffer, offset)[0]
    else:
        if offset <= end:
            return _header_columns(buffer[:offset]), offset
    # The names do not fit the frame: decode them one by one, so that the
    # first fault in frame order is the one reported.
    return decode_strs(buffer, 2, width)


def encode_result(result: ResultSet) -> bytes:
    """Encode a result set (columns + rows + rowcount)."""
    rows = result.rows
    parts = [_encode_header(tuple(result.columns)), _pack_u32(len(rows))]
    encode_run(chain.from_iterable(rows), parts)
    parts.append(_pack_u32(result.rowcount))
    return b"".join(parts)


def decode_result(buffer: bytes) -> ResultSet:
    """Decode a result set frame."""
    end = len(buffer)
    columns, offset = _decode_header(buffer)
    width = len(columns)
    if offset + 4 > end:
        raise ProtocolError("truncated value frame")
    row_count = _unpack_u32(buffer, offset)[0]
    offset += 4
    # Every value is at least its tag byte and a zero-column result
    # carries no rows: a declared count the frame cannot hold is damage,
    # rejected before anything is allocated for it.
    if row_count * max(width, 1) > end - offset:
        raise ProtocolError("truncated value frame")
    flat, offset = decode_run(buffer, offset, row_count * width)
    if width:
        rows = [tuple(flat[at : at + width]) for at in range(0, len(flat), width)]
    else:
        rows = [()] * row_count
    if offset + 4 > end:
        raise ProtocolError("truncated value frame")
    rowcount = _unpack_u32(buffer, offset)[0]
    if offset + 4 != end:
        raise ProtocolError("trailing bytes after result frame")
    return ResultSet(columns, rows, rowcount=rowcount)
