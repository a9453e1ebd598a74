"""Crash recovery: replay the write-ahead log into a fresh database.

The durability contract is redo-only: the in-memory tables are the cache,
the log on the :class:`~repro.recovery.simdisk.SimDisk` is the truth.
After a crash, :meth:`Durability.recover` rebuilds the database by

1. scanning the log's clean prefix (per-record CRCs, strict mid-log
   corruption detection — see :func:`repro.recovery.wal.scan_wal`);
2. restoring the most recent checkpoint snapshot, if any (checkpoints
   bound replay length: everything before the snapshot is one record,
   and a completed checkpoint drops that prefix from the disk);
3. replaying the records after it — operations buffer per transaction
   and apply at that transaction's COMMIT, so in-flight transactions are
   discarded for free and strict 2PL guarantees commit-order replay is
   equivalent to the original interleaving;
4. truncating the disk at the end of the clean prefix (tail repair) and,
   when any in-flight transaction was discarded, appending a fence
   record so a post-restart transaction that reuses a dead transaction's
   id can never merge with its orphaned records at the *next* recovery.

Recovery invariants (asserted end-to-end by ``benchmarks/bench_crash``):
no committed transaction's effects are lost, and no uncommitted
transaction's effects survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import DurabilityError, WalCorruptError
from repro.recovery.simdisk import SimDisk
from repro.recovery.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_DDL,
    KIND_DELETE,
    KIND_FENCE,
    KIND_INSERT,
    KIND_UPDATE,
    ColumnDef,
    IndexDef,
    Snapshot,
    TableSnapshot,
    WalRecord,
    WalWriter,
    scan_wal,
)
from repro.sqldb.database import Database
from repro.sqldb.render import render_statement
from repro.sqldb.schema import Column, TableSchema
from repro.sqldb.storage import TableStorage
from repro.sqldb.types import SQLType


@dataclass
class RecoveryReport:
    """What one recovery pass did — deterministic, JSON-friendly."""

    log_bytes: int = 0
    records_scanned: int = 0
    checkpoint_used: bool = False
    txns_committed: int = 0
    txns_discarded: int = 0
    replayed_records: int = 0
    ddl_replayed: int = 0
    tail_status: str = "clean"
    truncated_bytes: int = 0
    fenced: bool = False
    hwm: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "log_bytes": self.log_bytes,
            "records_scanned": self.records_scanned,
            "checkpoint_used": self.checkpoint_used,
            "txns_committed": self.txns_committed,
            "txns_discarded": self.txns_discarded,
            "replayed_records": self.replayed_records,
            "ddl_replayed": self.ddl_replayed,
            "tail_status": self.tail_status,
            "truncated_bytes": self.truncated_bytes,
            "fenced": self.fenced,
            "hwm": {str(client): seq for client, seq in sorted(self.hwm.items())},
        }
        return payload


# -- snapshots ---------------------------------------------------------------


def snapshot_database(database: Database, hwm: Dict[int, int]) -> Snapshot:
    """Capture *database* as a checkpoint snapshot.

    Requires a quiescent database (no open transactions): a checkpoint is
    a clean point in the log, so replay never has to stitch a transaction
    across one.
    """
    if database._transactions:
        raise DurabilityError(
            "cannot checkpoint with open transactions; commit or roll "
            "back first"
        )
    tables: List[TableSnapshot] = []
    for name in database.table_names():
        entry = database.catalog.lookup(name)
        storage = entry.storage
        columns = tuple(
            ColumnDef(
                name=column.name,
                type_name=column.sql_type.name,
                type_length=column.sql_type.length,
                not_null=column.not_null,
                primary_key=column.primary_key,
            )
            for column in entry.schema.columns
        )
        indexes = tuple(
            IndexDef(
                name=index.name,
                columns=tuple(
                    entry.schema.columns[position].name
                    for position in index.column_positions
                ),
                unique=index.unique,
            )
            for index in storage._indexes.values()
        )
        tables.append(
            TableSnapshot(
                name=entry.schema.name,
                columns=columns,
                indexes=indexes,
                total_slots=len(storage._rows),
                rows=tuple(storage.scan()),
            )
        )
    views = tuple(
        render_statement(database.views[key]) for key in sorted(database.views)
    )
    return Snapshot(
        tables=tuple(tables),
        views=views,
        hwm=tuple(sorted(hwm.items())),
        mvcc_clock=database.mvcc.clock,
    )


def restore_snapshot(database: Database, snapshot: Snapshot) -> None:
    """Materialise *snapshot* into a fresh (empty) *database*."""
    for table in snapshot.tables:
        schema = TableSchema(
            name=table.name,
            columns=[
                Column(
                    name=column.name,
                    sql_type=SQLType(column.type_name, column.type_length),
                    not_null=column.not_null,
                    primary_key=column.primary_key,
                )
                for column in table.columns
            ],
        )
        storage = TableStorage(schema)
        existing = {name.lower() for name in storage.index_names()}
        for index in table.indexes:
            if index.name.lower() in existing:
                continue  # the PK index auto-created by TableStorage
            storage.create_index(index.name, list(index.columns), unique=index.unique)
        for row_id, row in table.rows:
            storage.insert_at(row_id, row)
        storage.pad_slots(table.total_slots)
        # adopt_storage attaches the WAL journal; the storage is fully
        # populated first, so restore itself logs nothing.
        database.adopt_storage(schema, storage)
    for view_sql in snapshot.views:
        database.execute(view_sql)
    # Resume the commit clock where the checkpoint froze it so replayed
    # commits reuse the original stamps.
    database.mvcc.clock = snapshot.mvcc_clock


# -- replay ------------------------------------------------------------------


def _apply_op(database: Database, record: WalRecord) -> None:
    assert record.table is not None and record.row_id is not None
    storage = database.catalog.lookup(record.table).storage
    if record.kind == KIND_INSERT:
        assert record.row is not None
        storage.insert_at(record.row_id, record.row)
    elif record.kind == KIND_DELETE:
        storage.delete(record.row_id)
    else:  # KIND_UPDATE
        assert record.changes is not None
        storage.update(record.row_id, _patched(storage, record))


def _patched(storage: TableStorage, record: WalRecord) -> List[Any]:
    """The row an update record leaves in its slot: the row replay finds
    there with the logged columns replaced.  Sound for the reason replay
    is (module docstring): in commit order under strict 2PL the slot holds
    exactly the row the original update saw."""
    assert record.row_id is not None and record.changes is not None
    slots = storage._rows
    current = slots[record.row_id] if record.row_id < len(slots) else None
    if current is None:
        raise WalCorruptError(
            f"update record for empty slot {record.row_id} of "
            f"{storage.schema.name!r}"
        )
    row = list(current)
    for position, value in record.changes:
        if position >= len(row):
            raise WalCorruptError(
                f"update record changes column {position} of "
                f"{storage.schema.name!r}, which has {len(row)}"
            )
        row[position] = value
    return row


def _replay(
    database: Database, records: List[WalRecord], report: RecoveryReport
) -> Dict[int, int]:
    """Replay *records* into *database*; return the high-water-mark map.

    Starts from the last checkpoint in *records* (restoring its snapshot)
    and buffers subsequent operations per transaction, applying each
    buffer at its COMMIT.  Whatever is still buffered at the end of the
    log belonged to in-flight transactions and is discarded.
    """
    start = 0
    hwm: Dict[int, int] = {}
    for position in range(len(records) - 1, -1, -1):
        if records[position].kind == KIND_CHECKPOINT:
            snapshot = records[position].snapshot
            assert snapshot is not None
            restore_snapshot(database, snapshot)
            hwm = dict(snapshot.hwm)
            report.checkpoint_used = True
            start = position + 1
            break
    open_txns: Dict[int, List[WalRecord]] = {}
    for record in records[start:]:
        kind = record.kind
        if kind == KIND_BEGIN:
            open_txns.setdefault(record.txn_id, [])
        elif kind in (KIND_INSERT, KIND_DELETE, KIND_UPDATE):
            open_txns.setdefault(record.txn_id, []).append(record)
        elif kind == KIND_COMMIT:
            operations = open_txns.pop(record.txn_id, [])
            for buffered in operations:
                _apply_op(database, buffered)
                report.replayed_records += 1
            if operations:
                # The commit clock ticks exactly once per writing
                # transaction, in log order — the same sequence the
                # original execution produced.  No snapshot is open during
                # replay, so there are no versions to install.
                database.mvcc.commit()
            report.txns_committed += 1
            if record.origin is not None:
                client_id, seq = record.origin
                if seq > hwm.get(client_id, 0):
                    hwm[client_id] = seq
        elif kind == KIND_ABORT:
            open_txns.pop(record.txn_id, None)
        elif kind == KIND_DDL:
            assert record.sql is not None
            database.execute(record.sql)
            report.ddl_replayed += 1
            report.replayed_records += 1
        elif kind == KIND_FENCE:
            # Every transaction open at this point died with the crash the
            # fence commemorates; a later transaction reusing one of their
            # ids must start from an empty buffer.
            open_txns.clear()
        elif kind == KIND_CHECKPOINT:  # pragma: no cover - start skips these
            pass
    report.txns_discarded = len(open_txns)
    return hwm


# -- the durability bundle ---------------------------------------------------


class Durability:
    """One database's disk, write-ahead log, and recovery procedure.

    Owns the :class:`SimDisk` and (re)builds `(Database, WalWriter)`
    pairs from it::

        durability = Durability()
        db = durability.open()          # fresh or recovered, WAL attached
        ...crash...
        db = durability.recover()       # replayed from the log
    """

    def __init__(
        self,
        disk: Optional[SimDisk] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        self.disk = disk if disk is not None else SimDisk()
        self.recorder = recorder
        self.wal: Optional[WalWriter] = None
        self.database: Optional[Database] = None
        self.last_report: Optional[RecoveryReport] = None

    def open(self) -> Database:
        """Open the database: recover whatever the log holds (nothing,
        for a brand-new disk) and attach a fresh WAL writer."""
        return self.recover()

    def recover(self) -> Database:
        """Rebuild the database from the log; see the module docstring."""
        recorder = self.recorder
        if recorder is None:
            return self._recover()
        with recorder.span("recovery.replay", kind="recovery") as span:
            database = self._recover()
            report = self.last_report
            assert report is not None
            span.meta["records_scanned"] = report.records_scanned
            span.meta["replayed_records"] = report.replayed_records
            span.meta["txns_committed"] = report.txns_committed
            span.meta["txns_discarded"] = report.txns_discarded
            span.meta["tail_status"] = report.tail_status
            return database

    def _recover(self) -> Database:
        disk = self.disk
        if disk.crashed:
            disk.reopen()
        report = RecoveryReport()
        data = disk.read_all()
        report.log_bytes = len(data)
        scan = scan_wal(data, strict=True)
        report.records_scanned = len(scan.records)
        report.tail_status = scan.tail_status
        report.truncated_bytes = len(data) - scan.clean_length
        database = Database()
        database.recorder = self.recorder
        hwm = _replay(database, scan.records, report)
        report.hwm = dict(hwm)
        if report.truncated_bytes:
            disk.truncate(scan.clean_length)
        writer = WalWriter(disk)
        writer.hwm = dict(hwm)
        if report.txns_discarded:
            writer.fence()
            report.fenced = True
        database.attach_wal(writer)
        self.wal = writer
        self.database = database
        self.last_report = report
        return database

    def checkpoint(self) -> None:
        """Write a checkpoint record snapshotting the current database.

        Later recoveries restore the snapshot and replay only the records
        behind it, bounding replay work; the log before the checkpoint is
        dead, and the writer drops it once the record is on the disk.
        """
        if self.database is None or self.wal is None:
            raise DurabilityError("open() the database before checkpointing")
        snapshot = snapshot_database(self.database, self.wal.hwm)
        self.wal.checkpoint(snapshot)
