"""Fuzzing the WAL reader: damaged logs must fail *distinguishably*.

Whatever bytes are on the disk after a crash, ``scan_wal`` must either
return a clean prefix of intact records or raise ``WalCorruptError``
(mid-log damage) — never any other exception, and never a silently
wrong prefix: every record it returns must byte-round-trip, and damage
confined to the tail must never raise.  And a log whose every record
passes its CRC but says something impossible — a row that does not fit
its table, a slot past any the log allocated, a checkpoint that
contradicts itself — recovers or raises a typed ``ReproError``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import struct

import pytest

from repro.errors import DurabilityError, ProtocolError, ReproError, WalCorruptError
from repro.recovery import (
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_DDL,
    KIND_DELETE,
    KIND_INSERT,
    KIND_UPDATE,
    Durability,
    SimDisk,
    WalRecord,
    decode_payload,
    encode_record,
    scan_wal,
)
from repro.recovery.wal import Checkpoint, checkpoint_record

arbitrary_bytes = st.binary(max_size=400)

values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

#: The fixed schema hostile logs are written against.
SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
    "CREATE TABLE u (k VARCHAR(4) NOT NULL, w DOUBLE)",
)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
table_names = st.sampled_from(["t", "u"])
row_ids = st.one_of(
    st.integers(min_value=0, max_value=6), st.sampled_from([2**31, 2**64 - 1])
)
rows = st.lists(values, max_size=3).map(tuple)

checkpoints = st.builds(
    checkpoint_record,
    hwm=st.dictionaries(u32, u32, max_size=3),
    clock=st.integers(min_value=0, max_value=2**64 - 1),
    ddl=st.lists(st.sampled_from(SCHEMA + ("CREATE INDEX t_v ON t (v)",)), max_size=3),
    tables=st.lists(
        st.tuples(
            table_names,
            st.integers(min_value=0, max_value=8),
            st.lists(st.tuples(row_ids, rows), max_size=3),
        ),
        max_size=2,
    ),
)

records = st.one_of(
    checkpoints,
    st.builds(
        WalRecord,
        kind=st.just(KIND_INSERT),
        txn_id=st.integers(min_value=1, max_value=2**40),
        table=st.just("t"),
        row_id=st.integers(min_value=0, max_value=2**32 - 1),
        row=st.tuples(values, values),
    ),
    st.builds(
        WalRecord,
        kind=st.just(KIND_UPDATE),
        txn_id=st.integers(min_value=1, max_value=2**40),
        table=st.just("t"),
        row_id=st.integers(min_value=0, max_value=2**32 - 1),
        changes=st.lists(
            st.tuples(st.integers(min_value=0, max_value=0xFFFF), values),
            max_size=3,
        ).map(tuple),
    ),
    st.builds(
        WalRecord,
        kind=st.just(KIND_COMMIT),
        txn_id=st.integers(min_value=1, max_value=2**40),
    ),
)

logs = st.lists(records, max_size=6).map(
    lambda rs: (rs, b"".join(encode_record(r) for r in rs))
)

txn_ids = st.integers(min_value=1, max_value=3)
hostile_records = st.one_of(
    st.builds(WalRecord, kind=st.just(KIND_BEGIN), txn_id=txn_ids),
    st.builds(
        WalRecord,
        kind=st.just(KIND_INSERT),
        txn_id=txn_ids,
        table=table_names,
        row_id=row_ids,
        row=rows,
    ),
    st.builds(
        WalRecord,
        kind=st.just(KIND_UPDATE),
        txn_id=txn_ids,
        table=table_names,
        row_id=row_ids,
        changes=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), values), max_size=2
        ).map(tuple),
    ),
    st.builds(
        WalRecord,
        kind=st.just(KIND_DELETE),
        txn_id=txn_ids,
        table=table_names,
        row_id=row_ids,
    ),
    st.builds(WalRecord, kind=st.just(KIND_COMMIT), txn_id=txn_ids),
    checkpoints,
)


def scan_must_fail_cleanly(data):
    """The only acceptable outcomes: a scan result or WalCorruptError."""
    try:
        return scan_wal(data)
    except WalCorruptError:
        return None


class TestArbitraryBytes:
    @given(arbitrary_bytes)
    @settings(max_examples=300, deadline=None)
    def test_garbage_never_escapes(self, data):
        scan = scan_must_fail_cleanly(data)
        if scan is not None:
            assert scan.clean_length <= len(data)

    @given(arbitrary_bytes)
    @settings(max_examples=300, deadline=None)
    def test_decode_payload_raises_protocol_error_only(self, data):
        try:
            decode_payload(data)
        except ProtocolError:
            pass


class TestDamagedLogs:
    @given(logs)
    @settings(max_examples=200, deadline=None)
    def test_intact_log_roundtrips(self, log):
        records_in, data = log
        scan = scan_wal(data)
        assert scan.records == records_in
        assert scan.tail_status == "clean"
        assert scan.clean_length == len(data)

    @given(logs, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_truncation_recovers_a_prefix(self, log, cut):
        records_in, data = log
        cut = min(cut, len(data))
        scan = scan_wal(data[:cut])
        # Never an exception: truncation is tail damage by construction.
        assert scan.records == records_in[: len(scan.records)]
        if scan.clean_length < cut:
            assert scan.tail_status in ("torn", "corrupt")

    @given(logs, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_bit_flip_is_detected_or_mid_log(self, log, position):
        records_in, data = log
        if not data:
            return
        position %= len(data)
        damaged = bytearray(data)
        damaged[position] ^= 0x10
        scan = scan_must_fail_cleanly(bytes(damaged))
        if scan is None:
            return  # mid-log damage, loudly refused — acceptable
        # The recovered prefix must consist of byte-identical original
        # records (a flipped bit may only cost records, never alter one
        # undetected ... except inside fields the CRC covers, which it
        # always does).
        assert scan.records == records_in[: len(scan.records)]

    @given(logs, arbitrary_bytes)
    @settings(max_examples=200, deadline=None)
    def test_garbage_tail_preserves_the_prefix(self, log, garbage):
        records_in, data = log
        scan = scan_must_fail_cleanly(data + garbage)
        if scan is None:
            return  # resync found an intact record inside the garbage
        assert scan.records[: len(records_in)] == records_in


class TestHostileLogs:
    @given(st.lists(hostile_records, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_crc_valid_log_recovers_or_raises_a_typed_error(self, log):
        disk = SimDisk()
        for sql in SCHEMA:
            disk.append(encode_record(WalRecord(kind=KIND_DDL, sql=sql)))
        for record in log:
            disk.append(encode_record(record))
        try:
            Durability(disk).recover()
        except ReproError:
            pass


def log_with(*records):
    """A log holding ``t`` = {slot 0: (1, 10), slot 1: deleted}, then
    *records*."""
    durability = Durability(SimDisk())
    db = durability.open()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    db.execute("DELETE FROM t WHERE id = 2")
    for record in records:
        durability.disk.append(encode_record(record))
    return durability


def committed(record):
    return (
        WalRecord(kind=KIND_BEGIN, txn_id=77),
        record,
        WalRecord(kind=KIND_COMMIT, txn_id=77),
    )


class TestHostileDeltas:
    """An update record that does not fit the table it names is a typed
    error at replay, never an IndexError or a silently patched row."""

    def committed_update(self, row_id, changes):
        return committed(
            WalRecord(
                kind=KIND_UPDATE, txn_id=77, table="t", row_id=row_id,
                changes=changes,
            )
        )

    def test_well_formed_delta_replays(self):
        durability = log_with(*self.committed_update(0, ((1, 11),)))
        assert durability.recover().execute("SELECT * FROM t").rows == [(1, 11)]

    @pytest.mark.parametrize(
        "row_id, changes",
        [
            (0, ((2, 5),)),  # position == arity
            (0, ((0xFFFF, 5),)),
            (1, ((1, 5),)),  # the slot was deleted
            (9, ((1, 5),)),  # the slot never existed
        ],
        ids=["arity", "far-past-arity", "deleted-slot", "missing-slot"],
    )
    def test_delta_that_does_not_fit_is_a_typed_error(self, row_id, changes):
        durability = log_with(*self.committed_update(row_id, changes))
        with pytest.raises(DurabilityError) as raised:
            durability.recover()
        assert isinstance(raised.value, WalCorruptError)

    def test_uncommitted_hostile_delta_is_never_applied(self):
        begin, update, __ = self.committed_update(9, ((7, 5),))
        durability = log_with(begin, update)
        assert durability.recover().execute("SELECT * FROM t").rows == [(1, 10)]

    def test_truncated_pair_is_a_protocol_error(self):
        record = WalRecord(
            kind=KIND_UPDATE, txn_id=1, table="t", row_id=0,
            changes=((0, 1), (1, "abc")),
        )
        payload = encode_record(record)[9:]
        for cut in range(1, 12):
            with pytest.raises(ProtocolError):
                decode_payload(payload[:-cut])
        # A count that promises more pairs than the body holds.
        head = payload[: 9 + 4 + 1 + 8]
        with pytest.raises(ProtocolError):
            decode_payload(head + struct.pack(">H", 3) + payload[len(head) + 2 :])


class TestHostileRows:
    """Insert and delete records are checked against the table and the
    slots the log can have allocated: a typed error, never a silently
    short row, an IndexError or a heap padded until memory runs out."""

    def insert(self, row_id, row):
        return WalRecord(
            kind=KIND_INSERT, txn_id=77, table="t", row_id=row_id, row=row
        )

    def test_well_formed_insert_replays(self):
        durability = log_with(*committed(self.insert(2, (3, 30))))
        rows = durability.recover().execute("SELECT * FROM t ORDER BY id").rows
        assert rows == [(1, 10), (3, 30)]

    @pytest.mark.parametrize("row", [(3,), (3, 30, 300), ()])
    def test_row_of_the_wrong_arity_is_a_typed_error(self, row):
        durability = log_with(*committed(self.insert(2, row)))
        with pytest.raises(WalCorruptError, match="columns"):
            durability.recover()

    def test_row_id_past_every_slot_the_log_allocated_is_a_typed_error(self):
        # Eleven records are scanned, each allocating at most one slot.
        durability = log_with(*committed(self.insert(10**6, (3, 30))))
        with pytest.raises(WalCorruptError, match="slots the log"):
            durability.recover()

    def test_delete_of_a_missing_slot_is_a_typed_error(self):
        durability = log_with(
            *committed(WalRecord(kind=KIND_DELETE, txn_id=77, table="t", row_id=9))
        )
        with pytest.raises(WalCorruptError, match="missing slot"):
            durability.recover()

    def checkpoint(self, slots, rows):
        return checkpoint_record({}, 0, SCHEMA[:1], [("t", slots, rows)])

    def test_checkpoint_insert_below_its_slot_count_restores(self):
        durability = log_with(self.checkpoint(4, [(3, (1, 10))]))
        recovered = durability.recover()
        assert recovered.execute("SELECT * FROM t").rows == [(1, 10)]
        assert len(recovered.catalog.lookup("t").storage._rows) == 4

    @pytest.mark.parametrize(
        "slots, rows",
        [(4, [(4, (1, 10))]), (0, [(0, (1, 10))]), (4, [(0, (1,))])],
        ids=["at-slot-count", "no-slots", "arity"],
    )
    def test_checkpoint_insert_that_does_not_fit_is_a_typed_error(
        self, slots, rows
    ):
        durability = log_with(self.checkpoint(slots, rows))
        with pytest.raises(WalCorruptError):
            durability.recover()

    def test_checkpoint_embedding_a_non_schema_record_is_a_typed_error(self):
        commit = encode_record(WalRecord(kind=KIND_COMMIT, txn_id=1))[9:]
        checkpoint = self.checkpoint(0, []).checkpoint
        embedded = checkpoint.embedded + struct.pack(">I", len(commit)) + commit
        hostile = Checkpoint(checkpoint.hwm, checkpoint.clock, checkpoint.slots, embedded)
        durability = log_with(WalRecord(kind=KIND_CHECKPOINT, checkpoint=hostile))
        with pytest.raises(WalCorruptError, match="embeds"):
            durability.recover()
