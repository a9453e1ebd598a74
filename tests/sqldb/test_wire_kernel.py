"""The run-of-values kernel against a per-value reference.

``wire.encode_run`` / ``wire.decode_run`` encode and decode a whole row,
parameter list or WAL row in one loop; before them every value went
through its own ``encode_value`` / ``decode_value`` call.  The per-value
functions are kept *here*, as they were, as the oracle: the kernel must
produce the same bytes, the same values and — on damaged input — the same
``ProtocolError`` message, for every frame kind that is made of runs
(result, query, value list, batch, WAL row) and for the error frame.
"""

import enum
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.recovery import KIND_INSERT, WalRecord, decode_payload, encode_record
from repro.server import protocol
from repro.sqldb import wire
from repro.sqldb.result import ResultSet
from repro.sqldb.wire import INT64_MAX, INT64_MIN

# -- the reference: one call per value ---------------------------------------


def reference_encode_value(value):
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        if not INT64_MIN <= value <= INT64_MAX:
            raise ProtocolError(f"integer {value} is outside the int64 wire range")
        return b"I" + struct.pack(">q", value)
    if isinstance(value, float):
        return b"D" + struct.pack(">d", value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return b"S" + struct.pack(">I", len(payload)) + payload
    raise ProtocolError(f"cannot encode value of type {type(value).__name__}")


def _check(buffer, offset, needed):
    if offset + needed > len(buffer):
        raise ProtocolError("truncated value frame")


def reference_decode_value(buffer, offset):
    if offset >= len(buffer):
        raise ProtocolError("truncated value frame")
    tag = buffer[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        _check(buffer, offset, 1)
        return buffer[offset] != 0, offset + 1
    if tag == b"I":
        _check(buffer, offset, 8)
        return struct.unpack_from(">q", buffer, offset)[0], offset + 8
    if tag == b"D":
        _check(buffer, offset, 8)
        return struct.unpack_from(">d", buffer, offset)[0], offset + 8
    if tag == b"S":
        _check(buffer, offset, 4)
        length = struct.unpack_from(">I", buffer, offset)[0]
        offset += 4
        _check(buffer, offset, length)
        try:
            return buffer[offset : offset + length].decode("utf-8"), offset + length
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in frame: {exc}") from None
    raise ProtocolError(f"unknown value tag {tag!r}")


def reference_decode_run(buffer, offset, count):
    values = []
    for __ in range(count):
        value, offset = reference_decode_value(buffer, offset)
        values.append(value)
    return values, offset


# -- values -------------------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class Label(str):
    """A ``str`` subclass (e.g. a ``str``-mixin enum's value type)."""


class Ratio(float):
    pass


wire_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=20),
    st.sampled_from(["", "naïve", "日本語", "🚀 ünïcödé 🚀", "\x00"]),
    st.sampled_from([Colour.RED, Colour.BLUE]),
    st.text(max_size=8).map(Label),
    st.floats(allow_nan=False).map(Ratio),
)
runs = st.lists(wire_values, max_size=12)


def same_values(left, right):
    """List equality that tells -0.0 from 0.0, True from 1 and matches
    NaN with NaN — what "decodes to the same thing" means for the codec."""
    return [reference_encode_value(v) for v in left] == [
        reference_encode_value(v) for v in right
    ]


def outcome(decoder, *args):
    """``("ok", result)`` or ``("error", message)``; anything but a
    ProtocolError propagates and fails the test."""
    try:
        return "ok", decoder(*args)
    except ProtocolError as error:
        return "error", str(error)


def assert_decodes_like_the_reference(buffer, count):
    """Same values and next offset, or the same ProtocolError message."""
    kind, got = outcome(wire.decode_run, buffer, 0, count)
    expected_kind, expected = outcome(reference_decode_run, buffer, 0, count)
    assert kind == expected_kind
    if kind == "error":
        assert got == expected
    else:
        assert got[1] == expected[1]
        assert same_values(got[0], expected[0])


def damaged(frame, mask=0xFF):
    """Every strict prefix of *frame* and every position XOR *mask*."""
    for cut in range(len(frame)):
        yield frame[:cut]
    for position in range(len(frame)):
        mutated = bytearray(frame)
        mutated[position] ^= mask
        yield bytes(mutated)


# -- kernel == per-value -------------------------------------------------------


class TestKernelMatchesPerValueCodec:
    @given(runs)
    @settings(max_examples=300, deadline=None)
    def test_run_encoding_is_the_concatenation_of_value_encodings(self, values):
        parts = []
        wire.encode_run(values, parts)
        encoded = b"".join(parts)
        assert encoded == b"".join(reference_encode_value(v) for v in values)
        assert encoded == b"".join(wire.encode_value(v) for v in values)

    @given(runs)
    @settings(max_examples=300, deadline=None)
    def test_decode_after_encode_is_the_identity(self, values):
        encoded = b"".join(reference_encode_value(v) for v in values)
        decoded, offset = wire.decode_run(encoded, 0, len(values))
        assert offset == len(encoded)
        assert same_values(decoded, values)
        # Subclasses come back as the plain wire type, as they always did.
        assert {type(v) for v in decoded} <= {type(None), bool, int, float, str}

    @given(runs, st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_decoding_starts_at_the_offset_it_is_given(self, values, lead):
        encoded = b"\xee" * lead + b"".join(wire.encode_value(v) for v in values)
        decoded, offset = wire.decode_run(encoded, lead, len(values))
        assert offset == len(encoded)
        assert same_values(decoded, values)

    @pytest.mark.parametrize(
        "value", [INT64_MAX + 1, INT64_MIN - 1, 1 << 80, object(), b"bytes", [1]]
    )
    def test_unencodable_values_fail_like_the_reference(self, value):
        for values in ([value], [1, "a", value], [value, None]):
            with pytest.raises(ProtocolError) as expected:
                b"".join(reference_encode_value(v) for v in values)
            with pytest.raises(ProtocolError) as actual:
                wire.encode_run(values, [])
            assert str(actual.value) == str(expected.value)

    def test_bool_is_not_an_integer_and_enums_are(self):
        assert wire.encode_value(True) == b"B\x01"
        assert wire.encode_value(Colour.RED) == wire.encode_value(1)
        assert wire.encode_value(Label("x")) == wire.encode_value("x")
        assert wire.encode_value(Ratio(0.5)) == wire.encode_value(0.5)

    @given(runs, st.integers(min_value=1, max_value=255))
    @settings(max_examples=150, deadline=None)
    def test_damaged_runs_decode_or_fail_exactly_like_the_reference(
        self, values, mask
    ):
        frame = b"".join(reference_encode_value(v) for v in values)
        for candidate in damaged(frame, mask):
            assert_decodes_like_the_reference(candidate, len(values))

    @given(st.binary(max_size=80), st.integers(min_value=0, max_value=20))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_decode_or_fail_exactly_like_the_reference(
        self, payload, count
    ):
        assert_decodes_like_the_reference(payload, count)


# -- every frame made of runs: prefixes and mutations ---------------------------


def result_frame(values):
    columns = [f"c{i}" for i in range(len(values))]
    return wire.encode_result(ResultSet(columns, [tuple(values), tuple(values)]))


def query_frame(values):
    return wire.encode_query("SELECT ? -- naïve", values)


def value_list_frame(values):
    return protocol.encode_values(values)


def batch_frame(values):
    return protocol.encode_batch([("SELECT 1", values), ("SELECT ?, 'é'", values[:3])])


def procedure_frame(values):
    return protocol.encode_procedure_call("check_out_tree", values)


def error_frame(values):
    return protocol.encode_error(ProtocolError(f"bad things: {len(values)} — ü"))


def wal_row_payload(values):
    record = WalRecord(
        kind=KIND_INSERT, txn_id=7, table="part", row_id=3, row=tuple(values)
    )
    return encode_record(record)[9:]  # strip magic + length + CRC


FRAMES = [
    pytest.param(result_frame, wire.decode_result, id="result"),
    pytest.param(query_frame, wire.decode_query, id="query"),
    pytest.param(value_list_frame, protocol.decode_values, id="value-list"),
    pytest.param(batch_frame, protocol.decode_batch, id="batch"),
    pytest.param(procedure_frame, protocol.decode_procedure_call, id="procedure"),
    pytest.param(error_frame, protocol.decode_error, id="error"),
    pytest.param(wal_row_payload, decode_payload, id="wal-row"),
]

REPRESENTATIVE = [None, True, False, INT64_MIN, 0, 1.5, float("nan"), "", "日本語"]


@pytest.mark.parametrize("build, decode", FRAMES)
class TestDamagedFramesFailCleanly:
    """A decoder may answer a damaged frame or raise ``ProtocolError`` —
    never ``IndexError``, ``struct.error``, ``UnicodeDecodeError`` or
    ``MemoryError``, and never hang on a count the frame cannot hold."""

    def test_the_intact_frame_decodes(self, build, decode):
        decode(build(REPRESENTATIVE))

    def test_every_prefix_and_every_byte_value_at_every_position(
        self, build, decode
    ):
        frame = build(REPRESENTATIVE)
        for cut in range(len(frame)):
            outcome(decode, frame[:cut])
        for position in range(len(frame)):
            mutated = bytearray(frame)
            for value in range(256):
                mutated[position] = value
                outcome(decode, bytes(mutated))

    @given(values=runs, mask=st.integers(min_value=1, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_every_prefix_and_mutated_position_of_random_frames(
        self, build, decode, values, mask
    ):
        for candidate in damaged(build(values), mask):
            outcome(decode, candidate)

    def test_a_strict_prefix_never_decodes_to_the_whole(self, build, decode):
        frame = build(REPRESENTATIVE)
        whole = repr(decode(frame))
        for cut in range(len(frame)):
            kind, got = outcome(decode, frame[:cut])
            assert kind == "error" or repr(got) != whole


# -- one statement codec ----------------------------------------------------------


class TestProcedureCallIsAStatementBody:
    """A CALL_PROCEDURE body is a statement body: the procedure's name in
    place of the SQL text, its arguments in place of the parameters —
    encoded by the one statement codec, not by a copy of it."""

    @given(st.text(max_size=20), runs)
    @settings(max_examples=200, deadline=None)
    def test_procedure_call_bytes_are_the_statement_bytes(self, name, args):
        assert protocol.encode_procedure_call(name, args) == wire.encode_query(
            name, args
        )

    @given(st.text(max_size=20), runs)
    @settings(max_examples=100, deadline=None)
    def test_both_decoders_read_the_same_statement(self, name, args):
        body = wire.encode_query(name, args)
        decoded_name, decoded_args = protocol.decode_procedure_call(body)
        sql, params = wire.decode_query(body)
        assert decoded_name == sql == name
        assert same_values(decoded_args, params) and same_values(params, args)
