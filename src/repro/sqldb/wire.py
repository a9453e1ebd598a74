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

The tag loop (:func:`encode_run` / :func:`decode_run`) is the general
codec.  A result's rows go run by run of one *kind signature* (their
tags as a string, ``"ISSN"``) through code generated for it, which stops
at a row of another signature, raises no error of its own and hands a
fault to the tag loop: the bytes and the errors are the tag loop's.
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from itertools import chain
from operator import is_not
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.sqldb.expressions import _compile
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


# -- result rows, by kind signature (see the module docstring) ---------------

_TAGS = {type(None): "N", int: "I", float: "D", bool: "B", str: "S"}
#: The struct code of each fixed-width kind's payload.
_CODES = {"N": "", "I": "q", "D": "d", "B": "?"}
#: Rows per call of a fixed-width signature's chunk loop.
_CHUNK = 16


@lru_cache(maxsize=256)
def _codec(kinds: Tuple[type, ...]):
    """``(encode_rows, decode_rows)`` of rows whose values have the types
    *kinds*, generated once; a ``KeyError`` for a subclass.

    ``encode_rows(rows, i, n, extend)`` encodes rows *i* (of *kinds*) on
    and returns the first it left.  ``decode_rows(buffer, offset, count,
    rows)`` appends up to *count* rows and returns the offset of the
    first it left.  A row is one ``struct`` call per fixed-width stretch
    between strings, the tags constants; a signature of fixed-width
    kinds only also runs :data:`_CHUNK` rows per call, with its tags as
    pad bytes written or checked by an extended slice per column.
    """
    signature = "".join(map(_TAGS.__getitem__, kinds))
    args: Dict[str, Any] = {"T": kinds, "error": struct.error}
    encode = ["def encode_rows(rows, i, n, extend):", "    first = i"]
    decode = ["def decode_rows(buffer, offset, count, rows):", "    end = len(buffer)", "    try:"]
    if "S" not in signature and signature.strip("N"):  # fixed width, some payload
        sizes = [1 + struct.calcsize(_CODES[tag]) for tag in signature]
        size, fmt = sum(sizes), "".join("x" + _CODES[tag] for tag in signature)
        tags_at = [sum(sizes[:column]) for column in range(len(signature))]
        payload = [column for column, tag in enumerate(signature) if tag != "N"]
        columns = [
            f"u[{payload.index(column)}::{len(payload)}]" if tag != "N" else "nones"
            for column, tag in enumerate(signature)
        ]
        args.update(TC=args["T"] * _CHUNK, G=tuple((tag * _CHUNK).encode() for tag in signature))
        args.update(nones=(None,) * _CHUNK, chained=chain.from_iterable, present=partial(is_not, None))
        args.update(pc=struct.Struct(">" + fmt * _CHUNK).pack, uc=struct.Struct(">" + fmt * _CHUNK).unpack_from)
        encode += [
            f"    while i + {_CHUNK} <= n:",
            f"        flat = tuple(chained(rows[i:i + {_CHUNK}]))",
            "        if tuple(map(type, flat)) != TC:",
            "            break",
            "        b = bytearray(pc(*filter(present, flat)))",
            f"        {''.join(f'b[{start}::{size}], ' for start in tags_at)}= G",
            "        extend((b,))",
            f"        i += {_CHUNK}",
        ]
        decode += [
            f"        while count >= {_CHUNK}:",
            f"            stop = offset + {size * _CHUNK}",
            f"            if ({''.join(f'buffer[offset + {start}:stop:{size}], ' for start in tags_at)}) != G:",
            "                break",
            "            u = uc(buffer, offset)",
            f"            rows.extend(zip({', '.join(columns)}))",
            "            offset = stop",
            f"            count -= {_CHUNK}",
        ]
    encode += [
        "    for i in range(i, n):",
        "        row = rows[i]",
        "        if i != first and tuple(map(type, row)) != T:",
        "            return i",
    ]
    if signature:
        encode.append(f"        {''.join(f'a{column}, ' for column in range(len(signature)))}= row")
    decode.append("        for __ in range(count):")
    pieces: List[str] = []
    packed: List[str] = []
    unpacked: List[str] = []
    tests: List[str] = []
    codes: List[int] = []
    fmt, at = ">", "offset"
    for column, tag in enumerate(signature + "."):  # "." closes the last stretch
        name, code = f"a{column}", ord(tag)
        if tag in _CODES:
            fmt += "B" + _CODES[tag]
            packed.append(str(code))
            unpacked.append(f"t{column}")
            tests.append(f"t{column}")
            codes.append(code)
            if tag != "N":
                packed.append(name)
                unpacked.append(name)
            continue
        if tag == "S":
            fmt += "BI"
            packed += [str(code), f"len(b{column})"]
            unpacked += [f"t{column}", f"n{column}"]
            tests.append(f"t{column}")
            codes.append(code)
            encode.append(f"        b{column} = {name}.encode()")
        if tests:
            stretch = struct.Struct(fmt)
            args[f"p{column}"], args[f"u{column}"] = stretch.pack, stretch.unpack_from
            pieces.append(f"p{column}({', '.join(packed)})")
            decode += [
                f"            {', '.join(unpacked)}, = u{column}(buffer, {at})",
                f"            if ({', '.join(tests)},) != {tuple(codes)}:",
                "                return offset",
            ]
            at = f"{at} + {stretch.size}"
        if tag == "S":
            # Past the frame end, the slice is short: the next stretch's
            # unpack fails, and after the last column this test does.
            pieces.append(f"b{column}")
            decode += [f"            start = {at}", f"            at{column} = start + n{column}"]
            if column == len(signature) - 1:
                decode += [f"            if at{column} > end:", "                return offset"]
            decode.append(f"            {name} = buffer[start:at{column}].decode()")
            at = f"at{column}"
        fmt, packed, unpacked, tests, codes = ">", [], [], [], []
    if pieces:
        encode.append(f"        extend(({''.join(piece + ', ' for piece in pieces)}))")
    values = "".join("None, " if tag == "N" else f"a{column}, " for column, tag in enumerate(signature))
    decode += [
        f"            rows.append(({values}))",
        f"            offset = {at}",
        "    except (error, UnicodeDecodeError):",
        "        pass",
        "    return offset",
    ]
    body = "\n".join("    " + line for line in encode + ["    return n"] + decode)
    source = f"def make({', '.join(args)}):\n{body}\n    return encode_rows, decode_rows\n"
    return _compile(source)(*args.values())


#: Column count -> (header bytes, names, last row's value types) of the
#: last result frame decoded with that many columns: a cached plan's
#: frame is recognised by its first bytes, with no walk over the names,
#: and its rows' codec is guessed.
_recent: Dict[int, Tuple[bytes, Sequence[str], Optional[Tuple[type, ...]]]] = {}


def encode_result(result: ResultSet) -> bytes:
    """Encode a result set (columns + rows + rowcount)."""
    rows = result.rows
    n = len(rows)
    parts = [_encode_header(tuple(result.columns)), _pack_u32(n)]
    extend = parts.extend
    i = 0
    while i < n:
        mark = len(parts)
        try:
            i = _codec(tuple(map(type, rows[i])))[0](rows, i, n, extend)
        except (KeyError, struct.error, UnicodeEncodeError):  # a subclass or a fault
            del parts[mark:]
            break
    if i < n:
        encode_run(chain.from_iterable(rows[i:]), parts)
    parts.append(_pack_u32(result.rowcount))
    return b"".join(parts)


def decode_result(buffer: bytes) -> ResultSet:
    """Decode a result set frame."""
    end = len(buffer)
    if end < 2:
        raise ProtocolError("truncated value frame")
    width = _unpack_u16(buffer, 0)[0]
    recent = _recent.get(width)
    if recent is not None and buffer.startswith(recent[0]):
        header, columns, guess = recent
        offset = len(header)
    else:
        columns, offset = decode_strs(buffer, 2, width)
        header, guess = buffer[:offset], None
    if offset + 4 > end:
        raise ProtocolError("truncated value frame")
    row_count = _unpack_u32(buffer, offset)[0]
    offset += 4
    # Every value is at least its tag byte and a zero-column result
    # carries no rows: a declared count the frame cannot hold is damage,
    # rejected before anything is allocated for it.
    if row_count * max(width, 1) > end - offset:
        raise ProtocolError("truncated value frame")
    # Run by run from the guess.  Where a run stops, one row goes through
    # the tag loop, which raises the frame's first fault or gives the
    # signature of the next run.
    rows: List[Tuple[Any, ...]] = [] if width else [()] * row_count
    while len(rows) < row_count:
        if guess is not None:
            offset = _codec(guess)[1](buffer, offset, row_count - len(rows), rows)
            if len(rows) == row_count:
                break
        values, offset = decode_run(buffer, offset, width)
        rows.append(tuple(values))
        guess = tuple(map(type, values))
    if offset + 4 > end:
        raise ProtocolError("truncated value frame")
    rowcount = _unpack_u32(buffer, offset)[0]
    if offset + 4 != end:
        raise ProtocolError("trailing bytes after result frame")
    if len(_recent) > 256:
        _recent.clear()
    _recent[width] = (header, columns, guess)
    return ResultSet(columns, rows, rowcount=rowcount)
