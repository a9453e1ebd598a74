"""Crash recovery: replay the write-ahead log into a fresh database.

The durability contract is redo-only: the in-memory tables are the cache,
the log on the :class:`~repro.recovery.simdisk.SimDisk` is the truth.
After a crash, :meth:`Durability.recover` rebuilds the database by

1. scanning the log's clean prefix (per-record CRCs, strict mid-log
   corruption detection — see :func:`repro.recovery.wal.scan_wal`);
2. applying the most recent checkpoint, if any: its embedded ``Q`` and
   ``I`` records go through the same DDL execute and :func:`_apply_op`
   as the records behind it, then its header restores the heap slot
   counts and the commit clock (checkpoints bound replay length:
   everything before one is one record, and a completed checkpoint drops
   that prefix from the disk);
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
from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import DurabilityError, IntegrityError, WalCorruptError
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
    Checkpoint,
    CheckpointTable,
    WalRecord,
    WalWriter,
    embedded_records,
    scan_wal,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb import ast_walk
from repro.sqldb.database import Database
from repro.sqldb.render import render_statement
from repro.sqldb.storage import Row, TableStorage


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


# -- checkpoints -------------------------------------------------------------


def _contents(database: Database) -> Tuple[List[str], List[CheckpointTable]]:
    """What a checkpoint of *database* holds: a ``CREATE TABLE`` and its
    ``CREATE INDEX`` statements per table, then the views each after the
    views it reads; and each table's name, slot count and live rows.
    """
    ddl: List[str] = []
    tables: List[CheckpointTable] = []
    for name in database.table_names():
        entry = database.catalog.lookup(name)
        schema, storage = entry.schema, entry.storage
        columns = [
            ast.ColumnDef(column.name, column.sql_type, column.not_null, column.primary_key)
            for column in schema.columns
        ]
        ddl.append(render_statement(ast.CreateTable(schema.name, columns)))
        # CREATE TABLE itself makes the primary-key index.
        made = f"{schema.name}_pk".lower() if schema.primary_key_index() is not None else None
        for key, index in storage._indexes.items():
            if key != made:
                names = [schema.columns[position].name for position in index.column_positions]
                create = ast.CreateIndex(index.name, schema.name, names, index.unique)
                ddl.append(render_statement(create))
        tables.append((schema.name, len(storage._rows), storage.scan()))
    ddl.extend(render_statement(view) for view in _views_in_dependency_order(database))
    return ddl, tables


def _views_in_dependency_order(database: Database) -> List[ast.CreateView]:
    """Every view after the views it reads, otherwise by name.

    Creation order is not enough: a view can be dropped and re-created
    under an older view that reads it.  A view that reads a dropped table
    could not be re-created from the checkpoint, which is refused.
    """
    views = database.views
    ordered: List[ast.CreateView] = []
    placed: Set[str] = set()

    def place(key: str) -> None:
        if key in placed:
            return
        placed.add(key)
        for name in ast_walk.referenced_tables(views[key].select):
            if name in views:
                place(name)
            elif not database.catalog.exists(name):
                raise DurabilityError(
                    f"cannot checkpoint view {views[key].name!r}: it reads "
                    f"{name!r}, which no longer exists"
                )
        ordered.append(views[key])

    for key in sorted(views):
        place(key)
    return ordered


# -- replay ------------------------------------------------------------------


def _apply_checkpoint(database: Database, checkpoint: Checkpoint) -> Dict[str, int]:
    """Rebuild *database* from *checkpoint*; return its slot counts by
    lowercased table name.

    The embedded ``Q`` records go through the same DDL execute as the
    records behind the checkpoint.  Each run of one table's ``I`` records
    passes the checks :func:`_apply_op` makes and is loaded with one
    :meth:`TableStorage.load` — the rows, then each index once.  Then the
    header pads every heap to its slot count and resumes the commit clock
    where the checkpoint froze it, so replayed commits reuse the original
    stamps.
    """
    slots = {table.lower(): count for table, count in checkpoint.slots}
    runs = groupby(embedded_records(checkpoint), attrgetter("kind", "table"))
    for (kind, table), records in runs:
        if kind == KIND_DDL:
            for record in records:
                assert record.sql is not None
                database.execute(record.sql)
        elif kind == KIND_INSERT:
            storage = database.catalog.lookup(table).storage
            limit = slots.get(table.lower(), 0)
            arity = storage.schema.arity
            _load(storage, [_checked_row(record, limit, arity) for record in records])
        else:
            raise WalCorruptError(f"checkpoint embeds a {kind!r} record")
    for table, count in checkpoint.slots:
        database.catalog.lookup(table).storage.pad_slots(count)
    database.mvcc.clock = checkpoint.clock
    return slots


def _apply_op(
    database: Database, record: WalRecord, slots: Dict[str, int], headroom: int
) -> None:
    """Redo one row record.

    An insert's row id must lie below its table's slot count at the
    checkpoint (*slots*) plus *headroom*, and its row must have the
    table's arity.  Every slot allocated after a checkpoint was logged by
    an ``I`` record, so the records scanned are the headroom behind it;
    inside it there is none.
    """
    assert record.table is not None and record.row_id is not None
    storage = database.catalog.lookup(record.table).storage
    row_id = record.row_id
    if record.kind == KIND_INSERT:
        limit = slots.get(record.table.lower(), 0) + headroom
        _load(storage, [_checked_row(record, limit, storage.schema.arity)])
    elif record.kind == KIND_DELETE:
        if row_id >= len(storage._rows):
            raise WalCorruptError(
                f"delete record for missing slot {row_id} of {record.table!r}"
            )
        storage.delete(row_id)
    else:  # KIND_UPDATE
        assert record.changes is not None
        storage.update(row_id, _patched(storage, record))


def _checked_row(record: WalRecord, limit: int, arity: int) -> Tuple[int, Row]:
    """An insert record's ``(row_id, row)``, once its row id lies below
    *limit* and its row has *arity* values."""
    row_id, row = record.row_id, record.row
    assert row_id is not None and row is not None
    if row_id >= limit:
        raise WalCorruptError(
            f"insert record for slot {row_id} of {record.table!r}, "
            f"past the {limit} slots the log can have allocated"
        )
    if len(row) != arity:
        raise WalCorruptError(
            f"insert record of {len(row)} values for "
            f"{record.table!r}, which has {arity} columns"
        )
    return row_id, row


def _load(storage: TableStorage, rows: List[Tuple[int, Row]]) -> None:
    """Load *rows* into *storage*; two rows for one slot, or for one
    unique key, are a damaged log."""
    try:
        storage.load(rows)
    except IntegrityError as exc:
        raise WalCorruptError(
            f"cannot restore the rows of {storage.schema.name!r}: {exc}"
        ) from None


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

    Starts from the last checkpoint in *records* (applying it) and
    buffers subsequent operations per transaction, applying each buffer
    at its COMMIT.  Whatever is still buffered at the end of the log
    belonged to in-flight transactions and is discarded.
    """
    start = 0
    hwm: Dict[int, int] = {}
    slots: Dict[str, int] = {}
    for position in range(len(records) - 1, -1, -1):
        checkpoint = records[position].checkpoint
        if checkpoint is not None:
            slots = _apply_checkpoint(database, checkpoint)
            hwm = dict(checkpoint.hwm)
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
                _apply_op(database, buffered, slots, len(records))
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
        """Write a checkpoint record of the current database.

        Later recoveries apply it and replay only the records behind it,
        bounding replay work; the log before the checkpoint is dead, and
        the writer drops it once the record is on the disk.
        """
        database = self.database
        if database is None or self.wal is None:
            raise DurabilityError("open() the database before checkpointing")
        # A checkpoint is a clean point in the log, so replay never has to
        # stitch a transaction across one.
        if database._transactions:
            raise DurabilityError(
                "cannot checkpoint with open transactions; commit or roll "
                "back first"
            )
        ddl, tables = _contents(database)
        self.wal.checkpoint(database.mvcc.clock, ddl, tables)
