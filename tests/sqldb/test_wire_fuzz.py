"""Fuzzing the wire decoders: arbitrary bytes must fail *cleanly*.

A malformed frame from a broken client may reject with ProtocolError but
must never raise anything else (no IndexError/struct.error/etc. escaping
into the server loop) and must never hang.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import protocol
from repro.sqldb import wire

arbitrary_bytes = st.binary(max_size=300)


def must_fail_cleanly(decoder, payload):
    try:
        decoder(payload)
    except ProtocolError:
        pass  # the only error class a decoder may raise


class TestDecoderFuzz:
    @given(arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_decode_query(self, payload):
        must_fail_cleanly(wire.decode_query, payload)

    @given(arbitrary_bytes)
    # Zero columns, four billion rows: ten bytes that used to decode into
    # as many empty tuples (minutes, gigabytes) instead of failing.
    @example(struct.pack(">HII", 0, 0xFFFFFFFF, 0))
    @example(struct.pack(">HI", 1, 1) + b"v" + struct.pack(">I", 0xFFFFFFFF) + b"N")
    @settings(max_examples=200, deadline=None)
    def test_decode_result(self, payload):
        must_fail_cleanly(wire.decode_result, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_decode_procedure_call(self, payload):
        must_fail_cleanly(protocol.decode_procedure_call, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_decode_envelope(self, payload):
        must_fail_cleanly(protocol.decode_envelope, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_decode_batch(self, payload):
        must_fail_cleanly(protocol.decode_batch, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_decode_batch_result(self, payload):
        must_fail_cleanly(protocol.decode_batch_result, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_decode_stats(self, payload):
        must_fail_cleanly(protocol.decode_stats, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_decode_session_op(self, payload):
        must_fail_cleanly(protocol.decode_session_op, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_decode_error(self, payload):
        must_fail_cleanly(protocol.decode_error, payload)

    @given(st.text(max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_damaged_error_frame_never_decodes_to_a_clipped_message(
        self, message, data
    ):
        """ERROR frames get the integrity their sibling decoders have: a
        cut or padded frame is rejected, not re-raised half a message
        short."""
        frame = protocol.encode_error(ProtocolError(message))
        assert protocol.decode_error(frame) == ("ProtocolError", message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        for damaged in (frame[:cut], frame + b"\x00", frame + frame):
            try:
                protocol.decode_error(damaged)
            except ProtocolError:
                continue
            raise AssertionError(f"damaged error frame decoded: {damaged!r}")

    @given(
        st.lists(
            st.tuples(
                st.text(max_size=40),
                st.lists(
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    max_size=4,
                ),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_round_trips_through_codec(self, statements):
        decoded = protocol.decode_batch(protocol.encode_batch(statements))
        assert [(sql, list(params)) for sql, params in decoded] == [
            (sql, list(params)) for sql, params in statements
        ]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [protocol.BATCH_ENTRY_RESULT, protocol.BATCH_ENTRY_ERROR]
                ),
                st.binary(max_size=60),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_result_round_trips_through_codec(self, entries):
        encoded = protocol.encode_batch_result(entries)
        assert protocol.decode_batch_result(encoded) == entries


class TestServerSurvivesGarbage:
    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_server_answers_error_frames(self, payload):
        """The server must turn any garbage request into an ERROR response
        (or a valid response if the bytes happen to parse) — never crash."""
        from repro.server.server import DatabaseServer
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        server = DatabaseServer(db)
        response = server.handle(payload)
        opcode, __ = protocol.decode_envelope(response)
        assert opcode in (
            protocol.Opcode.RESULT,
            protocol.Opcode.PROCEDURE_RESULT,
            protocol.Opcode.PONG,
            protocol.Opcode.ERROR,
            protocol.Opcode.BATCH_RESULT,
            protocol.Opcode.STATS_RESULT,
            # Garbage that happens to be a CRC-valid SEQUENCED frame (e.g.
            # 13 zero bytes: crc32(b"") == 0) is answered in kind.
            protocol.Opcode.SEQUENCED_RESULT,
        )

    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_session_server_survives_garbage_session_frames(self, payload):
        """Each session/transaction opcode over arbitrary bytes must be
        answered with its result frame (a 4-byte body that parses) or a
        clean ERROR — on a server with and without session support."""
        from repro.concurrency import SessionManager
        from repro.server.server import DatabaseServer
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        servers = (
            DatabaseServer(db),
            DatabaseServer(db, sessions=SessionManager(db)),
        )
        for server in servers:
            for opcode in protocol.SESSION_OPCODES:
                response = server.handle(bytes([opcode.value]) + payload)
                answer, __ = protocol.decode_envelope(response)
                assert answer in (
                    protocol.Opcode.SESSION_RESULT,
                    protocol.Opcode.TXN_RESULT,
                    protocol.Opcode.ERROR,
                )

    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_server_survives_garbage_batch_bodies(self, payload):
        """A BATCH envelope around arbitrary bytes must come back as an
        ERROR (malformed body) or a BATCH_RESULT (parseable body) — the
        batch path may not crash the server either."""
        from repro.server.server import DatabaseServer
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        server = DatabaseServer(db)
        response = server.handle(bytes([protocol.Opcode.BATCH.value]) + payload)
        opcode, __ = protocol.decode_envelope(response)
        assert opcode in (
            protocol.Opcode.BATCH_RESULT,
            protocol.Opcode.ERROR,
        )


def make_server():
    from repro.server.server import DatabaseServer
    from repro.sqldb import Database

    db = Database()
    db.execute("CREATE TABLE t (v INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    return DatabaseServer(db)


def valid_batch_frame():
    return protocol.encode_envelope(
        protocol.Opcode.BATCH,
        protocol.encode_batch(
            [("SELECT v FROM t WHERE v = ?", [1]), ("SELECT 1", [])]
        ),
    )


def valid_stats_frame():
    return protocol.encode_envelope(protocol.Opcode.STATS, b"")


class TestDamagedFrames:
    """Truncated / bit-flipped frames of every request kind must be
    answered with an ERROR frame — ``handle()`` never raises."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_batch_frame(self, data):
        frame = valid_batch_frame()
        cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
        response = make_server().handle(frame[:cut])
        opcode, __ = protocol.decode_envelope(response)
        # A cut exactly at an entry boundary can still parse; anything
        # else must come back as a clean ERROR frame.
        assert opcode in (protocol.Opcode.BATCH_RESULT, protocol.Opcode.ERROR)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_flipped_batch_frame(self, data):
        frame = bytearray(valid_batch_frame())
        position = data.draw(
            st.integers(min_value=0, max_value=len(frame) * 8 - 1)
        )
        frame[position // 8] ^= 1 << (position % 8)
        response = make_server().handle(bytes(frame))
        protocol.decode_envelope(response)  # well-formed, whatever it is

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_damaged_stats_frame(self, data):
        frame = bytearray(valid_stats_frame() + b"garbage-tail")
        position = data.draw(
            st.integers(min_value=0, max_value=len(frame) * 8 - 1)
        )
        frame[position // 8] ^= 1 << (position % 8)
        response = make_server().handle(bytes(frame))
        protocol.decode_envelope(response)  # never raises through handle()

    def test_stats_request_with_trailing_garbage_still_answers(self):
        response = make_server().handle(valid_stats_frame())
        opcode, __ = protocol.decode_envelope(response)
        assert opcode is protocol.Opcode.STATS_RESULT


class TestSequencedFuzz:
    @given(arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_decode_sequenced(self, payload):
        must_fail_cleanly(protocol.decode_sequenced, payload)

    @given(arbitrary_bytes)
    @settings(max_examples=100, deadline=None)
    def test_server_answers_garbage_sequenced_bodies(self, payload):
        """Arbitrary bytes behind a SEQUENCED opcode are a CRC reject:
        the server answers a plain ERROR frame (retriable) unless the
        bytes happen to form a CRC-valid frame."""
        server = make_server()
        response = server.handle(
            bytes([protocol.Opcode.SEQUENCED.value]) + payload
        )
        opcode, __ = protocol.decode_envelope(response)
        assert opcode in (
            protocol.Opcode.ERROR,
            protocol.Opcode.SEQUENCED_RESULT,
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_damaged_sequenced_batch_answered_with_error(self, data):
        """A sequenced BATCH with any bit flipped fails its CRC: the
        server must reject it without executing anything."""
        server = make_server()
        inner = valid_batch_frame()
        frame = bytearray(
            protocol.encode_envelope(
                protocol.Opcode.SEQUENCED,
                protocol.encode_sequenced(1, 1, inner),
            )
        )
        # Flip a bit in the CRC field or the payload (the CRC does not
        # cover the client id / sequence number: a flip there yields a
        # valid frame for a different client, which the real client
        # rejects on unwrap instead).
        position = data.draw(
            st.integers(min_value=9 * 8, max_value=len(frame) * 8 - 1)
        )
        frame[position // 8] ^= 1 << (position % 8)
        response = server.handle(bytes(frame))
        opcode, __ = protocol.decode_envelope(response)
        assert opcode is protocol.Opcode.ERROR
        assert server.statistics["crc_rejects"] == 1
        assert server.statistics["batches"] == 0
