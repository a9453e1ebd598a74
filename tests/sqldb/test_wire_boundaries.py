"""Wire-format boundary values, end to end through a live server.

The encoding is ``>q`` for integers — Python ints are unbounded, so the
encoder has to range-check and fail as a protocol error (an ERROR frame
over the wire), never as a bare ``struct.error`` that would kill the
server loop.
"""

import math
import struct
import time

import pytest

from repro.errors import ProtocolError
from repro.network.profiles import LAN
from repro.server import protocol
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb import Database, wire
from repro.sqldb.result import ResultSet
from repro.sqldb.wire import INT64_MAX, INT64_MIN


def roundtrip_value(value):
    decoded, offset = wire.decode_value(wire.encode_value(value), 0)
    assert offset == len(wire.encode_value(value))
    return decoded


def roundtrip_result(result):
    return wire.decode_result(wire.encode_result(result))


class TestIntegerBoundaries:
    def test_int64_extremes_roundtrip(self):
        assert roundtrip_value(INT64_MAX) == INT64_MAX
        assert roundtrip_value(INT64_MIN) == INT64_MIN

    @pytest.mark.parametrize(
        "value", [INT64_MAX + 1, INT64_MIN - 1, 1 << 80, -(1 << 80)]
    )
    def test_overflow_raises_protocol_error(self, value):
        with pytest.raises(ProtocolError):
            wire.encode_value(value)

    def test_overflow_in_result_row_raises_protocol_error(self):
        result = ResultSet(["v"], [(INT64_MAX + 1,)])
        with pytest.raises(ProtocolError):
            wire.encode_result(result)

    def test_overflow_in_query_params_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            wire.encode_query("SELECT ?", [INT64_MAX + 1])


class TestFloatBoundaries:
    def test_nan_roundtrips(self):
        assert math.isnan(roundtrip_value(float("nan")))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), 0.0, -0.0])
    def test_infinities_and_zeroes_roundtrip(self, value):
        decoded = roundtrip_value(value)
        assert decoded == value
        assert math.copysign(1.0, decoded) == math.copysign(1.0, value)


class TestStringBoundaries:
    @pytest.mark.parametrize(
        "text",
        ["", "ascii", "naïve", "日本語", "🚀 ünïcödé 🚀", "a" * 10_000],
    )
    def test_utf8_roundtrips(self, text):
        assert roundtrip_value(text) == text

    def test_multibyte_length_is_bytes_not_codepoints(self):
        payload = wire.encode_value("日本語")
        # tag + u32 length + 9 UTF-8 bytes for 3 codepoints
        assert len(payload) == 1 + 4 + 9


class TestResultShapes:
    def test_zero_column_zero_row_result(self):
        result = roundtrip_result(ResultSet([], [], rowcount=3))
        assert result.columns == []
        assert result.rows == []
        assert result.rowcount == 3

    def test_zero_row_result_keeps_columns(self):
        result = roundtrip_result(ResultSet(["a", "b"], []))
        assert result.columns == ["a", "b"]
        assert result.rows == []

    def test_mixed_type_rows_roundtrip(self):
        rows = [(INT64_MIN, None, True, 1.5, "日本語"), (0, "", False, -0.0, "x")]
        result = roundtrip_result(ResultSet(list("abcde"), rows))
        assert result.rows == rows


class TestHostileRowCounts:
    """A declared row count the frame cannot hold is damage, rejected
    before the decoder loops over it: every value is at least one byte,
    and a zero-column result carries no rows.  (On a policy-less
    connection there is no CRC in front of a mangled RESULT.)"""

    @pytest.mark.parametrize("declared", [5, 3_000_000, 0xFFFFFFFF])
    def test_zero_column_frame_with_an_oversize_row_count(self, declared):
        frame = struct.pack(">HII", 0, declared, 0)
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match="truncated"):
            wire.decode_result(frame)
        # Four billion empty tuples took ~18 minutes; the check is O(1).
        assert time.perf_counter() - started < 0.05

    @staticmethod
    def one_column_frame(declared):
        """Two NULL rows (six bytes with the trailing rowcount) behind a
        header that declares *declared* rows."""
        intact = wire.encode_result(ResultSet(["v"], [(None,), (None,)]))
        header = 2 + 4 + 1  # column count, name length, "v"
        return intact[:header] + struct.pack(">I", declared) + intact[header + 4 :]

    @pytest.mark.parametrize("declared", [7, 3_000_000, 0xFFFFFFFF])
    def test_one_column_frame_with_an_oversize_row_count(self, declared):
        frame = self.one_column_frame(declared)
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match="truncated"):
            wire.decode_result(frame)
        assert time.perf_counter() - started < 0.05

    @pytest.mark.parametrize("declared", [0, 1, 3, 6])
    def test_a_wrong_count_the_frame_could_hold_fails_in_the_rows(self, declared):
        with pytest.raises(ProtocolError):
            wire.decode_result(self.one_column_frame(declared))

    def test_value_list_count_beyond_the_frame_is_truncation(self):
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.decode_values(struct.pack(">H", 0xFFFF) + b"N" * 10)

    def test_the_largest_count_the_frame_can_hold_still_decodes(self):
        rows = [(None,)] * 7
        decoded = roundtrip_result(ResultSet(["v"], rows))
        assert decoded.rows == rows

    def test_dml_result_without_columns_or_rows_still_round_trips(self):
        decoded = roundtrip_result(ResultSet([], [], rowcount=0xFFFFFFFF))
        assert (decoded.columns, decoded.rows) == ([], [])
        assert decoded.rowcount == 0xFFFFFFFF


class TestLiveServerBoundaries:
    """The same boundary values through an actual server ``handle`` call."""

    @pytest.fixture
    def connection(self):
        db = Database()
        server = DatabaseServer(db)
        return RemoteConnection(server, LAN.create_link())

    def test_int64_extremes_over_the_wire(self, connection):
        result = connection.execute("SELECT ?, ?", [INT64_MAX, INT64_MIN])
        assert result.rows == [(INT64_MAX, INT64_MIN)]

    def test_special_floats_over_the_wire(self, connection):
        result = connection.execute(
            "SELECT ?, ?, ?", [float("inf"), float("-inf"), float("nan")]
        )
        ((pos, neg, nan),) = result.rows
        assert pos == float("inf")
        assert neg == float("-inf")
        assert math.isnan(nan)

    def test_multibyte_strings_over_the_wire(self, connection):
        result = connection.execute("SELECT ?", ["🚀 日本語"])
        assert result.rows == [("🚀 日本語",)]

    def test_zero_column_result_over_the_wire(self, connection):
        connection.execute("CREATE TABLE t (v INTEGER)")
        result = connection.execute("INSERT INTO t VALUES (1), (2)")
        assert result.columns == []
        assert result.rowcount == 2
