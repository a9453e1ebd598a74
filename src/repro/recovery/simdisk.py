"""A simulated append-only disk with seeded crash-point injection.

The durability subsystem needs a "disk" whose failure modes can be
scripted the way :mod:`repro.network.faults` scripts a lossy WAN: the
same profile + seed always produces the same failure, byte for byte.  A
:class:`SimDisk` stores one append-only byte log (the write-ahead log
lives on it) and can be armed with a :class:`DiskFaultProfile`:

* **crash at the Nth append** — the disk loses power while writing the
  Nth record; that append raises :class:`~repro.errors.DiskCrashed` and
  every later write is rejected until :meth:`SimDisk.reopen`;
* **torn write** — the crashing append leaves a strict prefix of the
  record on the platter (length drawn from the seeded RNG), modelling a
  sector write interrupted mid-record;
* **bit flip** — the crashing append is written whole but with one bit
  flipped (position drawn from the seeded RNG), modelling tail
  corruption the WAL reader must detect via its per-record CRC.

Reads are always allowed (after the "reboot" the platter is readable),
:meth:`truncate` lets recovery repair the tail by cutting the log at the
end of its clean prefix before appending resumes, and :meth:`drop_prefix`
lets a checkpoint discard the log it made dead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import DiskCrashed, DurabilityError


@dataclass(frozen=True)
class DiskFaultProfile:
    """An immutable description of how (and when) the disk fails.

    ``crash_at_append`` counts appends *after arming*, 1-based: profile
    ``crash_at_append=3`` survives two appends and crashes on the third.
    ``torn`` and ``corrupt`` select what the crashing append leaves
    behind (nothing but a prefix, or the whole record with one bit
    flipped); with neither set the crashing append writes nothing at
    all — a clean crash between records.
    """

    name: str
    crash_at_append: Optional[int] = None
    torn: bool = False
    corrupt: bool = False

    def __post_init__(self) -> None:
        if self.crash_at_append is not None and self.crash_at_append < 1:
            raise DurabilityError("crash_at_append counts from 1")
        if self.torn and self.corrupt:
            raise DurabilityError(
                "a crashing append is torn or corrupted, not both"
            )
        if (self.torn or self.corrupt) and self.crash_at_append is None:
            raise DurabilityError(
                "torn/corrupt damage needs a crash_at_append point"
            )

    @property
    def perfect(self) -> bool:
        """True when this profile never fails."""
        return self.crash_at_append is None


#: The profile of a disk that never fails.
PERFECT_DISK = DiskFaultProfile(name="perfect-disk")


class SimDisk:
    """One append-only simulated disk holding the write-ahead log."""

    def __init__(
        self, profile: DiskFaultProfile = PERFECT_DISK, seed: int = 0
    ) -> None:
        self._data = bytearray()
        self.crashed = False
        #: Appends attempted since the last (re)arming, crash included.
        self.appends_since_armed = 0
        #: Total appends attempted over the disk's lifetime.
        self.total_appends = 0
        self._profile = profile
        self._rng = random.Random(seed)
        self._seed = seed

    # -- faults -------------------------------------------------------------

    @property
    def profile(self) -> DiskFaultProfile:
        return self._profile

    def arm(self, profile: DiskFaultProfile, seed: Optional[int] = None) -> None:
        """Install *profile* and restart the append count at zero.

        Arming after setup (schema creation, initial load, checkpoint)
        makes ``crash_at_append`` count only workload appends, so a
        crash-point sweep addresses the interesting part of the log.
        """
        self._profile = profile
        self.appends_since_armed = 0
        if seed is not None:
            self._seed = seed
        self._rng = random.Random(self._seed)

    # -- writes -------------------------------------------------------------

    def append(self, record: bytes) -> int:
        """Append *record*; return its start offset.

        Raises :class:`~repro.errors.DiskCrashed` at the armed crash
        point (after leaving the profile's torn/corrupt debris) and for
        every write after a crash until :meth:`reopen`.
        """
        if self.crashed:
            raise DiskCrashed("disk is crashed; reopen it after recovery")
        if not record:
            raise DurabilityError("cannot append an empty record")
        self.appends_since_armed += 1
        self.total_appends += 1
        offset = len(self._data)
        profile = self._profile
        if (
            profile.crash_at_append is not None
            and self.appends_since_armed >= profile.crash_at_append
        ):
            self.crashed = True
            if profile.torn and len(record) > 1:
                cut = self._rng.randrange(1, len(record))
                self._data.extend(record[:cut])
            elif profile.corrupt:
                damaged = bytearray(record)
                bit = self._rng.randrange(len(record) * 8)
                damaged[bit // 8] ^= 1 << (bit % 8)
                self._data.extend(damaged)
            raise DiskCrashed(
                f"power lost during append {self.appends_since_armed} "
                f"({profile.name})"
            )
        self._data.extend(record)
        return offset

    def truncate(self, length: int) -> None:
        """Cut the log to *length* bytes (recovery's tail repair)."""
        if length < 0 or length > len(self._data):
            raise DurabilityError(
                f"cannot truncate {len(self._data)}-byte disk to {length}"
            )
        del self._data[length:]

    def drop_prefix(self, length: int) -> None:
        """Forget the first *length* bytes (a checkpoint made them dead).

        Atomic, like the rename that swaps in a compacted log file: it
        either happened or it did not, there is no crash point inside.
        The survivors move to a fresh buffer (deleting in place would keep
        the old allocation), so the dropped prefix's memory is returned.
        """
        if self.crashed:
            raise DiskCrashed("disk is crashed; reopen it after recovery")
        if length < 0 or length > len(self._data):
            raise DurabilityError(
                f"cannot drop {length} bytes from a {len(self._data)}-byte disk"
            )
        self._data = self._data[length:]

    def reopen(self) -> None:
        """Bring the disk back after a crash (the reboot).

        The armed fault has fired; the profile resets to perfect so
        recovery's own writes do not immediately re-crash.  Arm a new
        profile explicitly to schedule the next failure.
        """
        self.crashed = False
        self._profile = PERFECT_DISK

    # -- reads --------------------------------------------------------------

    def read_all(self) -> bytes:
        """The whole platter, torn/corrupt tail included."""
        return bytes(self._data)

    @property
    def size(self) -> int:
        return len(self._data)
