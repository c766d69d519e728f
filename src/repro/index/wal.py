"""The write-ahead log: fsync'd, append-only, length+CRC-framed mutations.

Crash safety for the sharded backend (:mod:`repro.index.backends`) is built
from two pieces:

* this module -- an append-only log file of upsert/delete records, each
  carrying a monotonically increasing log sequence number (LSN).  A record is
  durable once :meth:`WriteAheadLog.append` returns: the bytes are flushed
  and ``fsync``'d before the caller may acknowledge the mutation.
* the snapshot in the shard files -- the manifest records the LSN the
  snapshot covers (``wal.snapshot_lsn``); opening a durable directory loads
  the shards and then replays only the records *past* that LSN, so recovery
  cost scales with the write delta since the last compaction, never with the
  database size.

On-disk format (see ``docs/durability.md``)::

    file   := header record*
    header := magic "RWAL" (4 bytes) | version u8
    record := length u32-le | crc32 u32-le | payload bytes

``length`` counts the payload bytes; ``crc32`` is the zlib CRC-32 of the
payload.  The payload is one UTF-8 JSON object::

    {"lsn": 42, "op": "upsert", "image_id": "img-0001", "entry": {...}}
    {"lsn": 43, "op": "delete", "image_id": "img-0001"}

where ``entry`` is the v1 per-image entry dictionary every storage backend
shares (``image_id`` / ``picture`` / ``bestring``; a ``signature`` key left by
older writers is ignored on replay).

A ``kill -9`` can land mid-append and leave a torn tail: a partial frame, a
short payload, or a flipped bit.  Reading is therefore *fail-closed at the
tail*: :func:`read_wal` returns every record up to the last frame whose
length and CRC check out and reports the file clean/dirty, never guessing at
bytes past the first damage.  Opening the log for append truncates the torn
tail away so new records extend a valid prefix.  Genuine I/O and format
errors (unreadable file, wrong magic) surface as
:class:`~repro.index.storage.StorageError` naming the offending path --
the same contract the shard and manifest readers obey.

The LSN-ordered, CRC-framed stream is also safe to *follow* from another
process: :class:`WalTailer` incrementally reads new records past a cursor
LSN, tolerating in-progress appends (a torn tail just ends the batch; the
next poll picks the record up once its fsync lands) and
truncation-after-compaction (the log file is atomically replaced, which the
tailer detects and resyncs from; records dropped past the cursor surface as
:class:`WalTruncatedError` so the follower can reload from the shard
snapshot instead).  This is the transport of the replica daemon
(``docs/replication.md``).  The tailer and :func:`read_wal` decode frames
with one function, so both accept exactly the same frames.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.index.storage import StorageError

PathLike = Union[str, Path]

#: Magic header of a write-ahead log file ("Repro WAL").
WAL_MAGIC = b"RWAL"
#: Write-ahead log container version.
WAL_FORMAT_VERSION = 1
#: Default file name of the log inside a durable shard directory.
WAL_NAME = "wal.log"
#: Byte length of the file header (magic + version).
_HEADER_SIZE = len(WAL_MAGIC) + 1
#: Byte length of one record frame prefix (length + CRC-32).
_FRAME_SIZE = 8
#: Operations a record may carry.
WAL_OPS = ("upsert", "delete")


def replace_durably(swaps: Sequence[Tuple[Path, Path]]) -> None:
    """Rename each ``(temporary, target)`` pair so that the swaps survive power loss.

    Every temporary file is fsync'd before the renames, and every target
    directory once after them.  Without the first, a power cut can leave a
    target naming bytes that never reached the disk; without the second, a
    rename itself can be lost while later writes that depend on it (a
    truncated log behind a new manifest) are not.  Every file swap of a
    stored database goes through here: a JSON file, the shard files, the
    manifest and the log.

    Raises:
        OSError: if a sync or a rename fails.
    """
    for temporary, _ in swaps:
        _fsync_path(temporary)
    for temporary, target in swaps:
        os.replace(temporary, target)
    for directory in dict.fromkeys(target.parent for _, target in swaps):
        _fsync_path(directory)


def _fsync_path(path: Path) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation: an upsert (with its image entry) or a delete."""

    lsn: int
    op: str
    image_id: str
    #: The v1 image entry dictionary for upserts; ``None`` for deletes.
    entry: Optional[Dict[str, Any]] = None

    def to_payload(self) -> bytes:
        """Serialise to the framed JSON payload bytes."""
        document: Dict[str, Any] = {
            "lsn": self.lsn,
            "op": self.op,
            "image_id": self.image_id,
        }
        if self.entry is not None:
            document["entry"] = self.entry
        return json.dumps(document, sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        """Parse one framed payload; raises ``ValueError`` on a bad document."""
        document = json.loads(payload.decode("utf-8"))
        if not isinstance(document, dict):
            raise ValueError("record payload is not a JSON object")
        lsn = document.get("lsn")
        op = document.get("op")
        image_id = document.get("image_id")
        if not isinstance(lsn, int) or isinstance(lsn, bool) or lsn < 1:
            raise ValueError(f"record has no valid lsn: {lsn!r}")
        if op not in WAL_OPS:
            raise ValueError(f"record has an unknown op: {op!r}")
        if not isinstance(image_id, str) or not image_id:
            raise ValueError("record has no image_id")
        entry = document.get("entry")
        if op == "upsert" and not isinstance(entry, dict):
            raise ValueError(f"upsert record for {image_id!r} has no entry")
        return cls(lsn=lsn, op=op, image_id=image_id, entry=entry if op == "upsert" else None)


def _frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _check_header(header: bytes, path: Path) -> None:
    """Raise unless ``header`` (at least ``_HEADER_SIZE`` bytes) opens a log we read."""
    if header[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise StorageError(f"{path} is not a write-ahead log (bad magic)")
    version = header[len(WAL_MAGIC)]
    if version != WAL_FORMAT_VERSION:
        raise StorageError(
            f"{path}: unsupported write-ahead log version {version} "
            f"(expected {WAL_FORMAT_VERSION})"
        )


def _frames(data: bytes, offset: int) -> Iterator[Tuple[WalRecord, int, int, int]]:
    """Decode the intact frames of ``data`` from ``offset`` on.

    Yields ``(record, start, length, crc)`` per frame, where ``start`` is the
    frame's offset in ``data`` and the frame ends at
    ``start + _FRAME_SIZE + length``.  Stops at the first torn frame prefix,
    short payload, CRC mismatch or unparsable payload: a crash's torn tail,
    or an append still in flight.
    """
    while offset + _FRAME_SIZE <= len(data):
        length, crc = struct.unpack_from("<II", data, offset)
        payload = data[offset + _FRAME_SIZE : offset + _FRAME_SIZE + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            return
        try:
            record = WalRecord.from_payload(payload)
        except (ValueError, UnicodeDecodeError):
            return
        yield record, offset, length, crc
        offset += _FRAME_SIZE + length


def read_wal(path: PathLike) -> Tuple[List[WalRecord], int, bool]:
    """Read every intact record of a log file, stopping at the first damage.

    Returns:
        ``(records, valid_bytes, clean)`` -- the records of the valid prefix,
        the byte offset that prefix ends at (where an append may resume), and
        whether the whole file was intact.  A missing file reads as an empty,
        clean log.

    Raises:
        StorageError: if the file cannot be read at all or does not start
            with the WAL magic header (it is not a log, rather than a torn
            one); the message names the offending path.
    """
    source = Path(path)
    if not source.exists():
        return [], 0, True
    try:
        data = source.read_bytes()
    except OSError as error:
        raise StorageError(f"{source} cannot be read: {error}") from error
    if len(data) < _HEADER_SIZE:
        # A header torn by a crash during initialisation: an empty log.
        return [], 0, len(data) == 0
    _check_header(data, source)
    records: List[WalRecord] = []
    offset = _HEADER_SIZE
    for record, start, length, _ in _frames(data, _HEADER_SIZE):
        if records and record.lsn <= records[-1].lsn:
            break  # LSNs must strictly increase
        records.append(record)
        offset = start + _FRAME_SIZE + length
    return records, offset, offset == len(data)


class WriteAheadLog:
    """An open, append-only write-ahead log bound to one file.

    Opening scans the existing file, truncates any torn tail back to the
    last intact record, and resumes LSNs after ``max(floor_lsn, last stored
    LSN)`` -- callers pass the manifest's ``snapshot_lsn`` as the floor so
    LSNs never move backwards across a compaction that emptied the log.
    """

    def __init__(
        self, path: PathLike, *, floor_lsn: int = 0, fsync: bool = True
    ) -> None:
        """Open (creating if needed) the log at ``path`` for appending.

        Raises:
            StorageError: if the file exists but is not a write-ahead log,
                or cannot be opened/created; the message names the path.
        """
        self.path = Path(path)
        self.fsync = fsync
        records, valid_bytes, clean = read_wal(self.path)
        self._records = records
        self._last_lsn = max(
            floor_lsn, records[-1].lsn if records else 0
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = valid_bytes < _HEADER_SIZE
            self._handle = open(self.path, "ab" if not fresh else "wb")
            if not clean and not fresh:
                # Drop the torn tail so new appends extend a valid prefix.
                self._handle.truncate(valid_bytes)
                self._handle.seek(valid_bytes)
            if fresh:
                self._handle.write(WAL_MAGIC + bytes([WAL_FORMAT_VERSION]))
                self._flush()
        except OSError as error:
            raise StorageError(f"{self.path} cannot be opened: {error}") from error
        self.recovered_clean = clean

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The LSN of the most recent append (or the floor when empty)."""
        return self._last_lsn

    @property
    def records(self) -> List[WalRecord]:
        """The intact records currently stored (a copy)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def pending_past(self, snapshot_lsn: int) -> int:
        """Number of stored records with an LSN past ``snapshot_lsn``."""
        return sum(1 for record in self._records if record.lsn > snapshot_lsn)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self, op: str, image_id: str, entry: Optional[Dict[str, Any]] = None
    ) -> int:
        """Durably log one mutation; returns its LSN once fsync'd.

        The record is on disk when this returns -- callers may acknowledge
        the mutation to a client immediately afterwards.

        Raises:
            ValueError: on an unknown ``op`` or an upsert without an entry.
            StorageError: if the write or fsync fails (message names the
                path); the in-memory LSN counter is left unchanged.
        """
        if op not in WAL_OPS:
            raise ValueError(f"unknown WAL op {op!r} (expected one of {WAL_OPS})")
        if op == "upsert" and entry is None:
            raise ValueError("an upsert record requires the image entry")
        record = WalRecord(
            lsn=self._last_lsn + 1,
            op=op,
            image_id=image_id,
            entry=entry if op == "upsert" else None,
        )
        try:
            self._handle.write(_frame(record.to_payload()))
            self._flush()
        except OSError as error:
            raise StorageError(f"{self.path} append failed: {error}") from error
        self._last_lsn = record.lsn
        self._records.append(record)
        return record.lsn

    def truncate_through(self, snapshot_lsn: int) -> int:
        """Drop every record with LSN <= ``snapshot_lsn`` (after a compaction).

        The new file is written beside the old one and atomically swapped in,
        so a crash mid-truncation leaves either the full old log or the
        trimmed new one -- both replay to the same state because records at
        or below the manifest's snapshot LSN are skipped anyway.

        Returns:
            The number of records dropped.

        Raises:
            StorageError: if the replacement file cannot be written.
        """
        kept = [record for record in self._records if record.lsn > snapshot_lsn]
        dropped = len(self._records) - len(kept)
        temporary = self.path.with_suffix(".log.tmp")
        try:
            with open(temporary, "wb") as handle:
                handle.write(WAL_MAGIC + bytes([WAL_FORMAT_VERSION]))
                for record in kept:
                    handle.write(_frame(record.to_payload()))
            self._handle.close()
            replace_durably([(temporary, self.path)])
            self._handle = open(self.path, "ab")
        except OSError as error:
            raise StorageError(f"{self.path} truncation failed: {error}") from error
        self._records = kept
        self._last_lsn = max(self._last_lsn, snapshot_lsn)
        return dropped

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        try:
            if not self._handle.closed:
                self._handle.close()
        except OSError:
            pass

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())


class WalTruncatedError(Exception):
    """The log no longer reaches back to the tailer's cursor.

    Raised by :meth:`WalTailer.poll` when records between the cursor and the
    log's first stored record have been dropped (a compaction truncated the
    log past the follower).  Not a corruption: the missing records are in
    the shard snapshot, so the follower recovers by reloading from it and
    resuming the tail at the snapshot's LSN.
    """


class WalTailer:
    """Incrementally follow a write-ahead log from a given LSN.

    The tailer is a read-only peer of a live :class:`WriteAheadLog` writer
    in another process.  Each :meth:`poll` returns the intact records past
    the cursor, in LSN order, advancing the cursor as it goes.  Three
    concurrent hazards are handled without coordination:

    * **in-progress appends** -- a frame whose bytes are only partially
      visible (length short, CRC mismatch, unparsable payload) ends the
      batch; the byte offset stays put and the next poll retries the frame,
      so a record is never yielded torn and never skipped.
    * **truncation after compaction** -- the writer atomically replaces the
      log file (:meth:`WriteAheadLog.truncate_through`), which the tailer
      detects via the inode change, a file shrinking below its offset, or
      the last-consumed frame header no longer matching its remembered
      length+CRC (a replacement that landed on a recycled inode at the same
      size), and resyncs from the top, skipping records at or below the
      cursor.
    * **records dropped past the cursor** -- if the resynced log starts
      *after* ``position + 1``, the gap is unrecoverable from the log alone
      and :meth:`poll` raises :class:`WalTruncatedError`; the follower
      reloads from the shard snapshot (whose manifest LSN covers the gap)
      and resumes with a fresh tailer.

    Polls are O(new bytes), not O(log): the tailer remembers the byte
    offset of the last intact frame and reads only past it.
    """

    def __init__(self, path: PathLike, *, from_lsn: int = 0) -> None:
        """Follow the log at ``path``, yielding records with LSN > ``from_lsn``."""
        self.path = Path(path)
        #: The cursor: LSN of the last record handed to the caller.
        self.position = from_lsn
        self._offset = 0
        self._inode: Optional[int] = None
        #: (absolute offset, length, crc) of the last intact frame consumed;
        #: re-verified each poll so a replacement file that reuses the inode
        #: at the same size cannot masquerade as "no new bytes".
        self._last_frame: Optional[Tuple[int, int, int]] = None

    def poll(self) -> List[WalRecord]:
        """New intact records past the cursor (empty when caught up).

        Returns:
            The fresh records in strictly increasing, gap-free LSN order;
            the cursor advances past everything returned.

        Raises:
            WalTruncatedError: when the log has been truncated past the
                cursor (reload from the snapshot and re-tail).
            StorageError: if the file is unreadable or not a write-ahead
                log at all.
        """
        fresh: List[WalRecord] = []
        for record in self._read_new_frames():
            if record.lsn <= self.position:
                continue  # resync overlap: already handed out
            if record.lsn != self.position + 1:
                raise WalTruncatedError(
                    f"{self.path}: log starts at LSN {record.lsn} but the "
                    f"tail cursor is at {self.position} -- records were "
                    "compacted away; reload from the snapshot"
                )
            fresh.append(record)
            self.position = record.lsn
        return fresh

    def _read_new_frames(self) -> List[WalRecord]:
        """Parse every intact frame past the remembered byte offset.

        Detects file replacement (new inode after an atomic truncation) and
        shrinkage (torn-tail trim below the offset) and restarts from the
        header; damage mid-read just ends the batch with the offset parked
        at the last intact frame.
        """
        try:
            status = os.stat(self.path)
        except FileNotFoundError:
            # Not created yet, or mid-replacement: nothing new this poll.
            self._offset = 0
            self._inode = None
            self._last_frame = None
            return []
        except OSError as error:
            raise StorageError(f"{self.path} cannot be read: {error}") from error
        if self._inode != status.st_ino or status.st_size < self._offset:
            self._offset = 0
            self._inode = status.st_ino
            self._last_frame = None
        try:
            with open(self.path, "rb") as handle:
                if self._last_frame is not None:
                    # Guard against a replacement that recycled the inode at
                    # exactly our offset: the frame we consumed last must
                    # still be there, byte for byte.
                    start, length, crc = self._last_frame
                    handle.seek(start)
                    head = handle.read(_FRAME_SIZE)
                    if (
                        len(head) < _FRAME_SIZE
                        or struct.unpack("<II", head) != (length, crc)
                    ):
                        self._offset = 0
                        self._last_frame = None
                handle.seek(self._offset)
                if self._offset == 0:
                    header = handle.read(_HEADER_SIZE)
                    if len(header) < _HEADER_SIZE:
                        return []  # header still being initialised
                    _check_header(header, self.path)
                    self._offset = _HEADER_SIZE
                data = handle.read()
        except OSError as error:
            raise StorageError(f"{self.path} cannot be read: {error}") from error
        records: List[WalRecord] = []
        base = self._offset
        for record, start, length, crc in _frames(data, 0):
            records.append(record)
            self._last_frame = (base + start, length, crc)
            self._offset = base + start + _FRAME_SIZE + length
        return records
