"""Hardened server error paths: a request may fail, the server may not.

Regression tests for two crash modes:

* an int64-overflowing value in a result set used to escape ``handle``
  as a bare ``struct.error`` (only ``ReproError`` was caught), killing
  the simulated server mid-request;
* any unexpected exception below the wire layer (e.g. a buggy server
  procedure) did the same.

And for values the frame format cannot carry — a counted list past 65 535
values, text UTF-8 cannot encode — which escaped as a bare
``struct.error`` / ``UnicodeEncodeError`` at the client or failed a whole
batch.

Both must now cost the client one error round trip and leave the server
answering the next request normally.
"""

import pytest

from repro.errors import ProtocolError, ReproError
from repro.network.profiles import LAN
from repro.server import protocol
from repro.server.client import RemoteConnection
from repro.server.protocol import Opcode
from repro.server.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.wire import INT64_MAX


@pytest.fixture
def stack():
    db = Database()
    db.execute("CREATE TABLE t (v INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    server = DatabaseServer(db)
    return server, RemoteConnection(server, LAN.create_link())


class TestOversizedIntegers:
    def test_overflowing_result_becomes_error_frame(self, stack):
        server, connection = stack
        with pytest.raises(ProtocolError):
            connection.execute(f"SELECT {INT64_MAX} + 1")
        assert server.statistics["errors"] == 1

    def test_server_survives_and_answers_next_request(self, stack):
        server, connection = stack
        with pytest.raises(ProtocolError):
            connection.execute(f"SELECT {INT64_MAX} + 1")
        assert connection.execute("SELECT v FROM t").rows == [(1,)]

    def test_overflow_in_batch_poisons_only_its_entry(self, stack):
        server, connection = stack
        results = connection.execute_batch(
            [
                ("SELECT v FROM t", []),
                (f"SELECT {INT64_MAX} + 1", []),
                ("SELECT v + 1 FROM t", []),
            ]
        )
        assert results[0].rows == [(1,)]
        assert isinstance(results[1], ReproError)
        assert results[2].rows == [(2,)]

    def test_unencodable_text_in_batch_poisons_only_its_entry(self, stack):
        server, connection = stack
        server.database.execute("CREATE TABLE s (v VARCHAR(8))")
        server.database.execute("INSERT INTO s VALUES (?)", ["\ud800"])
        results = connection.execute_batch(
            [
                ("SELECT v FROM t", []),
                ("SELECT v FROM s", []),
                ("SELECT v + 1 FROM t", []),
            ]
        )
        assert results[0].rows == [(1,)]
        assert isinstance(results[1], ProtocolError)
        assert "UTF-8" in str(results[1])
        assert results[2].rows == [(2,)]


class TestOversizedLists:
    """A counted list holds at most 65 535 values (u16 count)."""

    def test_procedure_result_past_the_count_is_a_typed_error(self, stack):
        server, connection = stack
        server.register_procedure("many", lambda database: list(range(65536)))
        with pytest.raises(ProtocolError, match="too long"):
            connection.call_procedure("many")
        assert connection.execute("SELECT v FROM t").rows == [(1,)]

    def test_procedure_arguments_past_the_count_are_a_typed_error(self, stack):
        server, connection = stack
        server.register_procedure("x", lambda database, *args: [len(args)])
        with pytest.raises(ProtocolError, match="too long"):
            connection.call_procedure("x", list(range(65536)))
        assert connection.call_procedure("x", list(range(65535))) == [65535]


class TestUnencodableText:
    """Text UTF-8 cannot encode (a lone surrogate) is a ``ProtocolError``
    at the caller, before anything is sent."""

    def test_parameter(self, stack):
        server, connection = stack
        with pytest.raises(ProtocolError, match="UTF-8"):
            connection.execute("SELECT ?", ["\ud800"])
        assert connection.statistics["round_trips"] == 0

    def test_statement_text(self, stack):
        server, connection = stack
        with pytest.raises(ProtocolError, match="UTF-8"):
            connection.execute("SELECT '\ud800'")
        assert connection.statistics["round_trips"] == 0

    def test_procedure_name(self, stack):
        server, connection = stack
        with pytest.raises(ProtocolError, match="UTF-8"):
            connection.call_procedure("p\ud800")
        assert connection.statistics["round_trips"] == 0

    def test_an_error_message_with_a_surrogate_still_reaches_the_client(
        self, stack
    ):
        server, connection = stack

        def buggy(database):
            raise ValueError("bad \ud800 text")

        server.register_procedure("buggy", buggy)
        with pytest.raises(ProtocolError, match="internal server error") as excinfo:
            connection.call_procedure("buggy")
        assert "\\ud800" in str(excinfo.value)
        assert connection.ping() > 0


class TestUnexpectedExceptions:
    def test_buggy_procedure_becomes_error_frame(self, stack):
        server, connection = stack

        def buggy(database, *args):
            raise ValueError("procedure bug")

        server.register_procedure("buggy", buggy)
        with pytest.raises(ProtocolError) as excinfo:
            connection.call_procedure("buggy")
        assert "internal server error" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)
        assert server.statistics["errors"] == 1

    def test_server_survives_buggy_procedure(self, stack):
        server, connection = stack
        server.register_procedure(
            "buggy", lambda database: (_ for _ in ()).throw(RuntimeError("x"))
        )
        with pytest.raises(ProtocolError):
            connection.call_procedure("buggy")
        assert connection.execute("SELECT v FROM t").rows == [(1,)]
        assert connection.ping() > 0

    def test_raw_handle_returns_error_envelope(self, stack):
        """At the frame level: the response is a decodable ERROR frame,
        not an exception escaping ``handle``."""
        server, __ = stack
        server.register_procedure(
            "buggy", lambda database: (_ for _ in ()).throw(KeyError("k"))
        )
        request = protocol.encode_envelope(
            Opcode.CALL_PROCEDURE,
            protocol.encode_procedure_call("buggy", []),
        )
        response = server.handle(request)
        opcode, body = protocol.decode_envelope(response)
        assert opcode is Opcode.ERROR
        kind, message = protocol.decode_error(body)
        assert kind == "ProtocolError"
        assert "KeyError" in message


class TestDamagedErrorFrames:
    """An ERROR frame is checked like every other frame: damage in
    transit surfaces as ``ProtocolError``, never as a well-typed server
    error carrying half a message."""

    @pytest.fixture
    def damaging_stack(self, stack):
        server, connection = stack
        handle = server.handle
        damage = {"apply": lambda response: response}
        server.handle = lambda frame: damage["apply"](handle(frame))
        return connection, damage

    def test_intact_error_frame_re_raises_the_server_error(self, damaging_stack):
        connection, __ = damaging_stack
        with pytest.raises(ReproError, match="no_such_column") as excinfo:
            connection.execute("SELECT no_such_column FROM t")
        assert not isinstance(excinfo.value, ProtocolError)

    def test_truncated_error_frame_is_a_protocol_error(self, damaging_stack):
        connection, damage = damaging_stack
        damage["apply"] = lambda response: response[:-10]
        with pytest.raises(ProtocolError, match="truncated error frame"):
            connection.execute("SELECT no_such_column FROM t")

    def test_padded_error_frame_is_a_protocol_error(self, damaging_stack):
        connection, damage = damaging_stack
        damage["apply"] = lambda response: response + b"\x00"
        with pytest.raises(ProtocolError, match="trailing bytes"):
            connection.execute("SELECT no_such_column FROM t")
