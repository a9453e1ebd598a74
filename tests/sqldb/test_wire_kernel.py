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


# -- the result codec, per kind signature, against the per-value reference ------


def reference_encode_result(result):
    """A result frame, one value at a time."""
    try:
        names = [name.encode("utf-8") for name in result.columns]
        body = b"".join(reference_encode_value(v) for row in result.rows for v in row)
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"text cannot be encoded as UTF-8: {exc}") from None
    header = struct.pack(">H", len(names)) + b"".join(
        struct.pack(">I", len(name)) + name for name in names
    )
    count = struct.pack(">I", len(result.rows))
    return header + count + body + struct.pack(">I", result.rowcount)


def reference_decode_result(buffer):
    """A result frame, one value at a time, with the checks and the
    messages the frame decoder has always had."""
    end = len(buffer)
    if end < 2:
        raise ProtocolError("truncated value frame")
    width = struct.unpack_from(">H", buffer)[0]
    offset, columns = 2, []
    for __ in range(width):
        _check(buffer, offset, 4)
        length = struct.unpack_from(">I", buffer, offset)[0]
        offset += 4
        _check(buffer, offset, length)
        try:
            columns.append(buffer[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in value frame: {exc}") from None
        offset += length
    _check(buffer, offset, 4)
    row_count = struct.unpack_from(">I", buffer, offset)[0]
    offset += 4
    if row_count * max(width, 1) > end - offset:
        raise ProtocolError("truncated value frame")
    rows = []
    for __ in range(row_count):
        row, offset = reference_decode_run(buffer, offset, width)
        rows.append(tuple(row))
    _check(buffer, offset, 4)
    rowcount = struct.unpack_from(">I", buffer, offset)[0]
    if offset + 4 != end:
        raise ProtocolError("trailing bytes after result frame")
    return ResultSet(columns, rows, rowcount=rowcount)


KIND_VALUES = {
    "N": st.none(),
    "I": st.one_of(
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX]),
    ),
    "D": st.floats(allow_nan=True, allow_infinity=True),
    "B": st.booleans(),
    "S": st.one_of(st.text(max_size=6), st.sampled_from(["", "日本語", "\x00"])),
}

#: Row counts: none, one, around the fixed-width chunk (16 rows) and
#: past a small batch (64 rows).
ROW_COUNTS = [0, 1, 2, 15, 16, 17, 31, 32, 33, 48, 70]


@st.composite
def result_sets(draw, row_counts=ROW_COUNTS):
    """Rows of one kind signature, from row k on (or at row k only) of
    another, with any wire value — NULL, a bool beside an int, an
    ``IntEnum``, a ``str`` subclass — anywhere."""
    width = draw(st.integers(min_value=0, max_value=5))
    count = draw(st.sampled_from(row_counts)) if width else draw(st.sampled_from([0, 1, 3]))
    signatures = [draw(st.text(alphabet="NIDBS", min_size=width, max_size=width))]
    signatures.append(draw(st.text(alphabet="NIDBS", min_size=width, max_size=width)))
    k = draw(st.integers(min_value=0, max_value=max(count - 1, 0)))
    until = draw(st.sampled_from([k + 1, count]))
    rows = []
    for index in range(count):
        signature = signatures[k <= index < until]
        rows.append([draw(KIND_VALUES[tag]) for tag in signature])
    for __ in range(draw(st.integers(min_value=0, max_value=3)) if count and width else 0):
        row = draw(st.integers(min_value=0, max_value=count - 1))
        rows[row][draw(st.integers(min_value=0, max_value=width - 1))] = draw(wire_values)
    columns = [draw(st.sampled_from(["c", "obid", "名前", ""])) + str(i) for i in range(width)]
    return ResultSet(columns, rows, rowcount=draw(st.sampled_from([len(rows), 0, 7])))


def assert_results_decode_alike(buffer):
    kind, got = outcome(wire.decode_result, buffer)
    expected_kind, expected = outcome(reference_decode_result, buffer)
    assert kind == expected_kind, (got, expected)
    if kind == "error":
        assert got == expected
    else:
        assert got.columns == expected.columns and got.rowcount == expected.rowcount
        assert len(got.rows) == len(expected.rows)
        for mine, theirs in zip(got.rows, expected.rows):
            assert type(mine) is tuple and same_values(mine, theirs)


class TestResultCodecMatchesPerValueCodec:
    """``encode_result`` / ``decode_result`` split the rows into runs of
    one kind signature, each run through a generated codec: the bytes,
    the values and every error are the per-value reference's."""

    @given(result_sets())
    @settings(max_examples=200, deadline=None)
    def test_bytes_and_values_are_the_references(self, result):
        frame = wire.encode_result(result)
        assert frame == reference_encode_result(result)
        for __ in range(2):  # the second read meets the remembered header
            assert_results_decode_alike(frame)
        decoded = wire.decode_result(frame)
        assert {type(v) for row in decoded.rows for v in row} <= {
            type(None), bool, int, float, str
        }

    @given(
        result_sets(),
        st.sampled_from(["\ud800", INT64_MAX + 1, INT64_MIN - 1, object()]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_an_unencodable_value_at_row_k_fails_like_the_reference(
        self, result, poison, data
    ):
        if not result.rows or not result.columns:
            return
        row = data.draw(st.integers(min_value=0, max_value=len(result.rows) - 1))
        column = data.draw(st.integers(min_value=0, max_value=len(result.columns) - 1))
        rows = [list(values) for values in result.rows]
        rows[row][column] = poison
        poisoned = ResultSet(result.columns, rows, rowcount=result.rowcount)
        with pytest.raises(ProtocolError) as expected:
            reference_encode_result(poisoned)
        with pytest.raises(ProtocolError) as actual:
            wire.encode_result(poisoned)
        assert str(actual.value) == str(expected.value)

    @given(result_sets(), st.integers(min_value=1, max_value=255), st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_prefix_and_mutation_fails_like_the_reference(self, result, mask, data):
        frame = wire.encode_result(result)
        wire.decode_result(frame)  # remembered: damaged copies meet the memo
        if len(frame) <= 600:
            candidates = damaged(frame, mask)
        else:
            positions = data.draw(
                st.lists(st.integers(min_value=0, max_value=len(frame) - 1), max_size=40)
            )
            candidates = [frame[:cut] for cut in positions] + [
                frame[:at] + bytes([frame[at] ^ mask]) + frame[at + 1 :] for at in positions
            ]
        for candidate in candidates:
            assert_results_decode_alike(candidate)

    @pytest.mark.parametrize("odd", [True, None, 7, 2.5, Colour.BLUE, "s"], ids=repr)
    def test_an_odd_value_anywhere_in_a_chunked_run_is_coded_like_the_reference(self, odd):
        for count in (16, 17, 33):
            for row in range(count):
                for column in range(3):
                    rows = [[n, -0.5 * n, n % 3 == 0] for n in range(count)]
                    rows[row][column] = odd
                    result = ResultSet(["i", "d", "b"], rows)
                    frame = wire.encode_result(result)
                    assert frame == reference_encode_result(result)
                    assert_results_decode_alike(frame)

    @pytest.mark.parametrize("count", [15, 16, 17, 33, 70])
    @pytest.mark.parametrize("bad", ["lone-surrogate", "big-string", "bad-tag"])
    def test_a_damaged_row_k_of_a_chunked_run_fails_like_the_reference(self, count, bad):
        rows = [(n, float(n), n % 2 == 0, None) for n in range(count)]
        frame = bytearray(wire.encode_result(ResultSet(["i", "d", "b", "n"], rows)))
        row_size = 9 + 9 + 2 + 1
        at = len(frame) - 4 - row_size * (count // 2 + 1)
        if bad == "bad-tag":
            frame[at] = ord("X")
        elif bad == "big-string":
            frame[at : at + 5] = b"S\x00\x00\x00\x09"
        else:
            frame[at : at + 9] = b"S\x00\x00\x00\x04\xed\xa0\x80x"
        assert_results_decode_alike(bytes(frame))

    def test_alternating_headers_of_one_width_decode_to_their_own_columns(self):
        first = ResultSet(["a", "b"], [(1, "x")])
        second = ResultSet(["x", "yy"], [("p", None), (2.5, True)])
        for __ in range(3):
            for result in (first, second):
                decoded = wire.decode_result(wire.encode_result(result))
                assert decoded.columns == result.columns
                assert decoded.rows == result.rows

    def test_a_header_sharing_a_prefix_with_a_remembered_one_is_read_in_full(self):
        remembered = ResultSet(["ab"], [(1,)])
        wire.decode_result(wire.encode_result(remembered))
        for columns in (["a"], ["abc"], ["ab\x00"]):
            result = ResultSet(columns, [(2,), ("s",)])
            frame = wire.encode_result(result)
            assert wire.decode_result(frame).columns == columns
            assert_results_decode_alike(frame)
        assert wire.decode_result(wire.encode_result(remembered)).columns == ["ab"]


# -- a counted list, as one row of its kind signature -----------------------------


def reference_encode_list(values):
    """A counted list as the tag loop writes it: u16 count + run."""
    parts = [struct.pack(">H", len(values))]
    wire.encode_run(values, parts)
    return b"".join(parts)


def encode_list(values):
    parts = [b"ahead"]
    wire.encode_list(values, parts)
    assert parts[0] == b"ahead"
    return b"".join(parts[1:])


class TestCountedListMatchesTheTagLoop:
    """``encode_list`` (a WAL row, a procedure's result) encodes its values
    through the generated codec of their kind signature, as a one-row
    result: the bytes, and every error, are the tag loop's — for lists
    and tuples, subclasses, faults and lists wider than the codec takes."""

    @given(
        st.one_of(runs, st.lists(wire_values, min_size=60, max_size=70)),
        st.sampled_from([None, "\ud800", INT64_MAX + 1, INT64_MIN - 1, object()]),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_or_error_are_the_tag_loops(self, values, poison, as_tuple, data):
        if values and poison is not None:
            values[data.draw(st.integers(min_value=0, max_value=len(values) - 1))] = poison
        values = tuple(values) if as_tuple else values
        assert outcome(encode_list, values) == outcome(reference_encode_list, values)

    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65])
    def test_every_width_around_the_widest_row(self, width):
        for values in ([n for n in range(width)], [None, "é", 2.5, True] * (width // 4)):
            assert encode_list(values) == reference_encode_list(values)


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
