"""WAL record codec, scanner and writer semantics."""

import zlib

import pytest

from repro.errors import ProtocolError, WalCorruptError
from repro.recovery import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_COMMIT,
    KIND_DDL,
    KIND_DELETE,
    KIND_FENCE,
    KIND_INSERT,
    KIND_UPDATE,
    SimDisk,
    WalRecord,
    WalWriter,
    decode_payload,
    encode_record,
    scan_wal,
)
from repro.recovery.wal import (
    _HEADER,
    Checkpoint,
    checkpoint_record,
    embedded_records,
)

SAMPLE_DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(40))",
    "CREATE VIEW v AS SELECT id FROM t",
)
SAMPLE_CHECKPOINT = checkpoint_record(
    {11: 2, 9: 4},
    clock=6,
    ddl=SAMPLE_DDL,
    tables=[("t", 5, [(0, (1, "a")), (3, (7, None))])],
)

SAMPLE_RECORDS = [
    WalRecord(kind=KIND_BEGIN, txn_id=3),
    WalRecord(
        kind=KIND_INSERT, txn_id=3, table="t", row_id=0, row=(1, "a")
    ),
    WalRecord(
        kind=KIND_UPDATE, txn_id=3, table="t", row_id=0, changes=((1, None),)
    ),
    WalRecord(kind=KIND_DELETE, txn_id=3, table="t", row_id=0),
    WalRecord(kind=KIND_COMMIT, txn_id=3, origin=(12, 34)),
    WalRecord(kind=KIND_COMMIT, txn_id=4),
    WalRecord(kind=KIND_ABORT, txn_id=5),
    WalRecord(kind=KIND_DDL, sql="CREATE TABLE t (id INTEGER)"),
    WalRecord(kind=KIND_FENCE),
    SAMPLE_CHECKPOINT,
]


def frame(record: WalRecord) -> bytes:
    return encode_record(record)


def payload_of(framed: bytes) -> bytes:
    return framed[_HEADER.size :]


class TestCodec:
    @pytest.mark.parametrize(
        "record", SAMPLE_RECORDS, ids=[r.kind for r in SAMPLE_RECORDS]
    )
    def test_roundtrip(self, record):
        assert decode_payload(payload_of(frame(record))) == record

    def test_trailing_garbage_rejected(self):
        payload = payload_of(frame(SAMPLE_RECORDS[0]))
        with pytest.raises(ProtocolError):
            decode_payload(payload + b"x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"Z" + b"\x00" * 8)

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"")


class TestCheckpointRecord:
    """A ``K`` record is a header plus ordinary record payloads."""

    def test_header(self):
        checkpoint = SAMPLE_CHECKPOINT.checkpoint
        assert (checkpoint.hwm, checkpoint.clock, checkpoint.slots) == (
            ((9, 4), (11, 2)), 6, (("t", 5),),
        )

    def test_embedded_records_are_ordinary_records(self):
        assert list(embedded_records(SAMPLE_CHECKPOINT.checkpoint)) == [
            WalRecord(kind=KIND_DDL, sql=SAMPLE_DDL[0]),
            WalRecord(kind=KIND_DDL, sql=SAMPLE_DDL[1]),
            WalRecord(kind=KIND_INSERT, table="t", row_id=0, row=(1, "a")),
            WalRecord(kind=KIND_INSERT, table="t", row_id=3, row=(7, None)),
        ]

    def test_each_embedded_payload_is_what_encode_record_writes(self):
        embedded = SAMPLE_CHECKPOINT.checkpoint.embedded
        offset, payloads = 0, []
        while offset < len(embedded):
            length = int.from_bytes(embedded[offset : offset + 4], "big")
            payloads.append(embedded[offset + 4 : offset + 4 + length])
            offset += 4 + length
        assert payloads == [
            payload_of(frame(record))
            for record in embedded_records(SAMPLE_CHECKPOINT.checkpoint)
        ]

    @pytest.mark.parametrize("cut", [1, 3, 5, 20])
    def test_damaged_embedded_stream_is_a_typed_error(self, cut):
        damaged = Checkpoint((), 0, (), SAMPLE_CHECKPOINT.checkpoint.embedded[:-cut])
        with pytest.raises(WalCorruptError):
            list(embedded_records(damaged))


class TestScan:
    def test_clean_log(self):
        data = b"".join(frame(r) for r in SAMPLE_RECORDS)
        scan = scan_wal(data)
        assert scan.records == SAMPLE_RECORDS
        assert scan.tail_status == "clean"
        assert scan.clean_length == len(data)

    def test_empty_log(self):
        scan = scan_wal(b"")
        assert scan.records == []
        assert scan.tail_status == "clean"

    def test_torn_tail_stops_cleanly(self):
        good = frame(SAMPLE_RECORDS[0]) + frame(SAMPLE_RECORDS[1])
        torn = frame(SAMPLE_RECORDS[4])[:-3]
        scan = scan_wal(good + torn)
        assert len(scan.records) == 2
        assert scan.tail_status == "torn"
        assert scan.clean_length == len(good)

    def test_corrupt_tail_stops_cleanly(self):
        good = frame(SAMPLE_RECORDS[0])
        bad = bytearray(frame(SAMPLE_RECORDS[4]))
        bad[-1] ^= 0x40  # flip a payload bit; CRC must catch it
        scan = scan_wal(good + bytes(bad))
        assert len(scan.records) == 1
        assert scan.tail_status == "corrupt"
        assert scan.clean_length == len(good)

    def test_mid_log_damage_raises_in_strict_mode(self):
        first = bytearray(frame(SAMPLE_RECORDS[1]))
        first[-1] ^= 0x01
        data = bytes(first) + frame(SAMPLE_RECORDS[4])
        with pytest.raises(WalCorruptError):
            scan_wal(data)
        # Non-strict recovers the (empty) prefix without raising.
        scan = scan_wal(data, strict=False)
        assert scan.records == []
        assert scan.tail_status == "corrupt"

    def test_crc_is_actually_checked(self):
        framed = bytearray(frame(SAMPLE_RECORDS[0]))
        # Recompute a *wrong* CRC so framing still parses.
        body = payload_of(bytes(framed))
        wrong = (zlib.crc32(body) ^ 1) & 0xFFFFFFFF
        framed[5:9] = wrong.to_bytes(4, "big")
        scan = scan_wal(bytes(framed))
        assert scan.records == []
        assert scan.tail_status == "corrupt"


class TestWriter:
    def test_lazy_begin_and_commit(self):
        disk = SimDisk()
        writer = WalWriter(disk)
        writer.log_insert(1, "t", 0, (1,))
        writer.commit(1)
        kinds = [r.kind for r in scan_wal(disk.read_all()).records]
        assert kinds == [KIND_BEGIN, KIND_INSERT, KIND_COMMIT]

    def test_read_only_transaction_appends_nothing(self):
        disk = SimDisk()
        writer = WalWriter(disk)
        writer.commit(1)
        writer.abort(2)
        assert disk.size == 0
        assert writer.appends == 0

    def test_commit_origin_updates_hwm(self):
        disk = SimDisk()
        writer = WalWriter(disk)
        writer.origin = (42, 7)
        writer.log_insert(1, "t", 0, (1,))
        writer.commit(1)
        assert writer.hwm == {42: 7}
        commit = scan_wal(disk.read_all()).records[-1]
        assert commit.origin == (42, 7)

    def test_hwm_never_regresses(self):
        disk = SimDisk()
        writer = WalWriter(disk)
        writer.hwm[42] = 9
        writer.origin = (42, 7)
        writer.log_insert(1, "t", 0, (1,))
        writer.commit(1)
        assert writer.hwm == {42: 9}

    def test_appends_after_crash_are_silently_dropped(self):
        from repro.errors import DiskCrashed
        from repro.recovery import DiskFaultProfile

        disk = SimDisk()
        disk.arm(DiskFaultProfile(name="x", crash_at_append=3))
        writer = WalWriter(disk)
        writer.log_insert(1, "t", 0, (1,))  # BEGIN + INSERT
        with pytest.raises(DiskCrashed):
            writer.log_insert(1, "t", 1, (2,))
        # Cleanup-path logging (rollbacks during eviction) must not
        # re-raise on the dead disk.
        writer.abort(1)
        writer.log_insert(1, "t", 2, (3,))
        assert disk.total_appends == 3  # attempts, the crashed one included
        assert len(scan_wal(disk.read_all()).records) == 2


class TestUpdateDelta:
    """A ``U`` record carries the columns the update changed, nothing else."""

    @pytest.mark.parametrize(
        "changes",
        [
            (),
            ((0, None),),
            ((3, -0.0),),
            ((1, True), (2, 1), (4, 1.0)),
            ((65535, "späť"), (0, 2**62)),
        ],
        ids=["empty", "null", "negative-zero", "bool-int-float", "wide"],
    )
    def test_roundtrip(self, changes):
        record = WalRecord(
            kind=KIND_UPDATE, txn_id=9, table="t", row_id=4, changes=changes
        )
        decoded = decode_payload(payload_of(frame(record)))
        assert decoded == record
        # == conflates what the codec must not: compare types and signs too.
        for (__, before), (__, after) in zip(changes, decoded.changes):
            assert type(after) is type(before)
            assert repr(after) == repr(before)

    def test_row_delta_names_only_the_changed_columns(self):
        from repro.recovery.wal import row_delta

        old = (1, "name", 2.5, None, "x" * 500)
        assert row_delta(old, old) == ()
        assert row_delta(old, (1, "name", 2.5, None, "x" * 500)) == ()
        assert row_delta(old, (1, "other", 2.5, 0, "x" * 500)) == (
            (1, "other"),
            (3, 0),
        )

    @pytest.mark.parametrize(
        "before, after",
        [(1, True), (True, 1), (1, 1.0), (0.0, -0.0), (None, 0), ("1", 1)],
    )
    def test_row_delta_never_conflates_values_that_compare_equal(
        self, before, after
    ):
        from repro.recovery.wal import row_delta

        ((position, value),) = row_delta((before,), (after,))
        assert position == 0
        assert type(value) is type(after) and repr(value) == repr(after)

    def test_writer_logs_the_delta_even_when_it_is_empty(self):
        disk = SimDisk()
        writer = WalWriter(disk)
        writer.log_update(1, "t", 3, (1, "a", None), (1, "b", None))
        writer.log_update(1, "t", 3, (1, "b", None), (1, "b", None))
        first, second = scan_wal(disk.read_all()).records[1:]
        assert (first.kind, first.row_id, first.changes) == (
            KIND_UPDATE, 3, ((1, "b"),),
        )
        assert (second.kind, second.changes) == (KIND_UPDATE, ())

    def test_an_eco_does_not_relog_the_payload(self):
        from repro.model.parameters import TreeParameters
        from repro.pdm.generator import generate_product
        from repro.pdm.schema import create_pdm_schema, load_product
        from repro.recovery import Durability

        durability = Durability(SimDisk())
        db = durability.open()
        create_pdm_schema(db)
        product = generate_product(TreeParameters(depth=2, branching=2), seed=4)
        load_product(db, product)
        target = product.assemblies[0]
        assert len(target.payload) > 300
        before = durability.disk.size
        db.execute(
            "UPDATE assy SET weight = ?, state = 'eco' WHERE obid = ?",
            [12.5, target.obid],
        )
        appended = durability.disk.read_all()[before:]
        assert target.payload.encode() not in appended
        assert len(appended) < 150  # BEGIN + a two-column U + COMMIT
        recovered = durability.recover()
        row = recovered.execute(
            "SELECT weight, state, payload FROM assy WHERE obid = ?", [target.obid]
        ).rows
        assert row == [(12.5, "eco", target.payload)]
