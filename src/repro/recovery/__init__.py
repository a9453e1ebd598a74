"""Durability subsystem: write-ahead log, crash injection, recovery.

Layers, bottom up:

* :mod:`repro.recovery.simdisk` — an append-only simulated disk with a
  seeded fault profile (crash at the Nth append, optionally leaving a
  torn or bit-flipped final record);
* :mod:`repro.recovery.wal` — the CRC-framed redo log: record codec
  (a checkpoint embeds ordinary ``Q`` and ``I`` records), the
  damage-distinguishing scanner and the :class:`WalWriter` the database
  appends through;
* :mod:`repro.recovery.recover` — the :class:`Durability` bundle that
  writes checkpoints and replays the log into a fresh database at every
  open;
* :mod:`repro.recovery.chaos` — the crash workload over the client
  simulator of :mod:`repro.concurrency.sim`, its verdict
  (:func:`violations`) and its sweep driver (the ``bench_crash`` harness).
"""

from repro.concurrency.sim import report_json
from repro.recovery.chaos import (
    CRASH_FAILURES,
    CrashChaosSim,
    CrashConfig,
    run_crash_chaos,
    run_crash_sweep,
    sweep_profiles,
    violations,
)
from repro.recovery.recover import Durability, RecoveryReport
from repro.recovery.simdisk import PERFECT_DISK, DiskFaultProfile, SimDisk
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
    MAX_PAYLOAD,
    WalRecord,
    WalScan,
    WalWriter,
    decode_payload,
    encode_record,
    scan_wal,
)

__all__ = [
    "CRASH_FAILURES",
    "CrashChaosSim",
    "CrashConfig",
    "Durability",
    "DiskFaultProfile",
    "KIND_ABORT",
    "KIND_BEGIN",
    "KIND_CHECKPOINT",
    "KIND_COMMIT",
    "KIND_DDL",
    "KIND_DELETE",
    "KIND_FENCE",
    "KIND_INSERT",
    "KIND_UPDATE",
    "MAX_PAYLOAD",
    "PERFECT_DISK",
    "RecoveryReport",
    "SimDisk",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "decode_payload",
    "encode_record",
    "report_json",
    "run_crash_chaos",
    "run_crash_sweep",
    "scan_wal",
    "sweep_profiles",
    "violations",
]
