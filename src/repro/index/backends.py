"""Pluggable storage backends: JSON v1 and sharded binary files.

:mod:`repro.index.storage` defines the original whole-file JSON format; this
module generalises persistence behind a :class:`StorageBackend` interface so a
database can outgrow a single JSON blob without the rest of the system
noticing.  Two backends ship:

* :class:`JsonBackend` — the versioned v1 JSON file, byte-compatible with
  databases written before this module existed.  Always a full rewrite,
  swapped in atomically.
* :class:`ShardedBackend` — a directory of binary shard files plus a JSON
  manifest; image ids are hashed (CRC-32) across a fixed number of shards and
  an incremental save rewrites only the shards containing dirty images.

Both backends produce the exact same logical content: the per-image entry
dictionaries of the v1 schema (``image_id`` / ``picture`` / ``bestring``),
validated on load by re-encoding each picture and comparing BE-strings.
Nothing derived is stored: the shortlist reads the validated BE-string
itself, and a ``signature`` payload an older writer left behind (entry key,
manifest flag) is ignored.
Round-trip equivalence across backends — identical BE-strings *and* identical
search rankings — is enforced by ``tests/index/test_backends.py``.

Incremental saves are driven by the dirty-id set that
:class:`~repro.index.database.ImageDatabase` accumulates on every mutation
(see :meth:`~repro.index.database.ImageDatabase.dirty_ids`); a successful
save or load clears it.  ``benchmarks/bench_storage_backends.py`` (E11)
measures the payoff: at 10k images with 1% dirty, an incremental sharded save
beats the full JSON rewrite by well over an order of magnitude.

A stored database's format is fixed by its path: an existing directory is
sharded and an existing file is JSON.  A file that starts with the SQLite
magic header was written by an earlier release's SQLite backend and is
refused with a :class:`~repro.index.storage.StorageError` that says how to
convert it.  Only a writer chooses a format (``"json"`` / ``"sharded"``, or
an instance); a fresh save target otherwise goes by suffix (``.shards`` or
no suffix → sharded, anything else → JSON).  See
``docs/storage-formats.md`` for the on-disk format specifications.

The sharded backend additionally supports **crash-safe durability**: a
manifest may carry a ``wal`` block naming an append-only write-ahead log
(:mod:`repro.index.wal`) and the log sequence number (LSN) its shard
snapshot covers.  Loading such a directory replays only the log records past
that LSN, so recovery cost scales with the write delta since the last
compaction.  :class:`DurableShardedStore` is the live handle a long-running
service uses: fsync'd per-mutation log appends plus threshold-triggered
compaction.  One function, ``_compact``, writes every durable snapshot --
the store's compactions, its first snapshot, and
``save_database_to(..., durable=True)``: it rewrites the shards of every
logged or dirty image, swaps in a manifest anchored at the log tail, and
truncates the log.  Every shard, manifest and log swap goes through
:func:`~repro.index.wal.replace_durably` (fsync'd temp file, atomic rename,
fsync'd directory), so the ordering holds under power loss, not only under
a process kill.  See ``docs/durability.md`` for the crash-ordering argument.
"""

from __future__ import annotations

import abc
import json
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.index.database import ImageDatabase, ImageRecord, _collector_paused
from repro.index.storage import (
    SCHEMA_VERSION,
    StorageError,
    check_schema_version,
    database_from_entries,
    document_images,
    image_entry_to_record,
    image_record_to_json,
    load_database as _load_json_database,
    save_database as _save_json_database,
)
from repro.index.wal import WAL_NAME, WriteAheadLog, read_wal, replace_durably

PathLike = Union[str, Path]

#: Magic header of a binary shard file ("Repro BE-String").
SHARD_MAGIC = b"RBES"
#: Binary shard container version.
SHARD_FORMAT_VERSION = 1
#: File name of the shard-directory manifest.
MANIFEST_NAME = "manifest.json"
#: ``format`` field value a shard manifest must carry.
MANIFEST_FORMAT = "sharded-bestring-v1"
#: Default number of shard files for a sharded database.
DEFAULT_SHARD_COUNT = 16
#: First bytes of every SQLite database file, which no backend reads.
_SQLITE_MAGIC = b"SQLite format 3\x00"
#: Suffix inferred as a sharded directory when saving to a fresh path.
_SHARDED_SUFFIX = ".shards"


def shard_index_for(image_id: str, shard_count: int) -> int:
    """Map an image id to its shard index (stable CRC-32 hash).

    Returns:
        The shard index in ``[0, shard_count)``; the mapping is stable across
        processes and Python versions (unlike the built-in ``hash``).
    """
    return zlib.crc32(image_id.encode("utf-8")) % shard_count


def _refuse_sqlite(target: Path) -> None:
    """Raise :class:`StorageError` if the file ``target`` is a SQLite database.

    One 16-byte read: the SQLite magic header every such file starts with.
    """
    with target.open("rb") as handle:
        head = handle.read(len(_SQLITE_MAGIC))
    if head == _SQLITE_MAGIC:
        raise StorageError(
            f"{target} is a SQLite database, a format this release no longer "
            "reads or writes; convert it with an earlier release "
            "(repro convert db.sqlite db.json)"
        )


def _shard_directory(path: PathLike) -> Path:
    """``path`` as a shard-directory target; raises if it names a file."""
    target = Path(path)
    if target.exists() and not target.is_dir():
        raise StorageError(f"{target} is a file, not a shard directory")
    return target


class StorageBackend(abc.ABC):
    """Persistence strategy for an :class:`~repro.index.database.ImageDatabase`.

    Implementations must write the logical v1 content (schema version,
    database name, per-image entries) and validate BE-strings on load.  A
    successful :meth:`save` or :meth:`load` clears the database's dirty set.
    """

    #: Registry name of the backend (``"json"`` or ``"sharded"``).
    name: str = "abstract"

    @abc.abstractmethod
    def save(
        self, database: ImageDatabase, path: PathLike, *, incremental: bool = False
    ) -> Path:
        """Persist ``database`` to ``path``.

        With ``incremental=True`` a backend that supports it rewrites only the
        storage units (shards) containing images in
        :attr:`~repro.index.database.ImageDatabase.dirty_ids`, falling back to
        a full rewrite when the target is absent or inconsistent.

        Returns:
            The path written.

        Raises:
            StorageError: if the target exists but is not a valid database of
                this backend's format.
        """

    @abc.abstractmethod
    def load(self, path: PathLike) -> ImageDatabase:
        """Load a database from ``path``, validating every BE-string.

        Returns:
            The reconstructed database with a clean dirty set.

        Raises:
            StorageError: if the file/directory is missing pieces, corrupt, or
                fails validation; the message names the offending path.
        """

    @abc.abstractmethod
    def describe(self, path: PathLike) -> Dict[str, Any]:
        """Summarise a stored database without fully validating it.

        Returns:
            A dictionary with at least ``format``, ``schema_version``,
            ``name`` and ``images`` (count); backends add format-specific
            keys (``size_bytes``, ``shard_count``, ...).

        Raises:
            StorageError: if the target is not a database of this format.
        """


# ----------------------------------------------------------------------
# JSON (v1) backend
# ----------------------------------------------------------------------
class JsonBackend(StorageBackend):
    """The original whole-file JSON format (schema v1, byte-compatible)."""

    name = "json"

    def save(
        self, database: ImageDatabase, path: PathLike, *, incremental: bool = False
    ) -> Path:
        """Write the database as one v1 JSON file (always a full rewrite).

        ``incremental`` is accepted for interface symmetry but has no effect:
        a single JSON document cannot be partially rewritten.  The file is
        swapped in whole, so a failed save leaves the previous one.

        Returns:
            The path written.

        Raises:
            StorageError: if the target is a directory or a SQLite database
                (left untouched), or the file cannot be written.
        """
        target = Path(path)
        if target.is_dir():
            raise StorageError(f"{target} is a directory, not a JSON database file")
        if target.is_file():
            _refuse_sqlite(target)
        _save_json_database(database, target)
        database.clear_dirty()
        return target

    def load(self, path: PathLike) -> ImageDatabase:
        """Read a v1 JSON database file.

        Returns:
            The reconstructed database with a clean dirty set.

        Raises:
            StorageError: on invalid JSON/UTF-8 or failed validation.
            FileNotFoundError: if ``path`` does not exist.
        """
        database = _load_json_database(path)
        database.clear_dirty()
        return database

    def describe(self, path: PathLike) -> Dict[str, Any]:
        """Summarise a JSON database file (parses it, skips BE validation).

        Returns:
            Format, schema version, name, image count and file size.

        Raises:
            StorageError: if the file is not valid JSON.
        """
        source = Path(path)
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
            images = document_images(payload)
        except (json.JSONDecodeError, UnicodeDecodeError, StorageError) as error:
            raise StorageError(f"{source} is not a valid JSON database: {error}") from error
        return {
            "format": self.name,
            "path": str(source),
            "schema_version": payload.get("schema_version"),
            "name": payload.get("name"),
            "images": len(images),
            "size_bytes": source.stat().st_size,
        }


# ----------------------------------------------------------------------
# Sharded binary backend
# ----------------------------------------------------------------------
class ShardedBackend(StorageBackend):
    """A directory of binary shard files with a JSON manifest.

    Image ids are hashed (CRC-32, stable across processes) into
    ``shard_count`` buckets; each bucket is one binary file of
    zlib-compressed, length-framed JSON image entries.  The manifest records
    the schema version, database name, shard count and the id list of every
    shard, so an incremental save can rewrite only the shards whose images
    are dirty.  See ``docs/storage-formats.md`` for the byte layout.
    """

    name = "sharded"

    def __init__(self, shard_count: int = DEFAULT_SHARD_COUNT) -> None:
        """Configure the number of shard files used on a full save.

        Raises:
            ValueError: if ``shard_count`` is not positive.
        """
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    # -- saving ---------------------------------------------------------
    def save(
        self, database: ImageDatabase, path: PathLike, *, incremental: bool = False
    ) -> Path:
        """Persist to a shard directory; ``incremental=True`` rewrites dirty shards only.

        A full save honours this backend's ``shard_count``; an incremental
        save keeps the shard count of the existing directory.  Incremental
        saves against a missing or inconsistent target fall back to a full
        rewrite.  The manifest is a plain one, so a write-ahead log left in
        the directory is removed: this snapshot covers everything it held.

        Returns:
            The directory written.
        """
        target = _shard_directory(path)
        self._save(database, target, incremental)
        stale_wal = target / WAL_NAME
        try:
            stale_wal.unlink(missing_ok=True)
        except OSError as error:
            raise StorageError(f"{stale_wal} cannot be removed: {error}") from error
        return target

    def _save(
        self,
        database: ImageDatabase,
        target: Path,
        incremental: bool,
        wal_block: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the shards and a manifest carrying ``wal_block`` (``None``: plain)."""
        manifest = self._try_manifest(target) if incremental else None
        if manifest is not None and self._can_update(manifest, database):
            self._save_incremental(database, target, manifest, wal_block)
        else:
            self._save_full(database, target, wal_block)
        database.clear_dirty()

    def _save_full(
        self, database: ImageDatabase, target: Path, wal_block: Optional[Dict[str, Any]]
    ) -> None:
        target.mkdir(parents=True, exist_ok=True)
        buckets: Dict[int, List[ImageRecord]] = {index: [] for index in range(self.shard_count)}
        for record in database:
            buckets[shard_index_for(record.image_id, self.shard_count)].append(record)
        shards = self._write_shards(target, buckets)
        # Drop shard files from a previous layout (e.g. a larger shard count).
        expected = {self._shard_file_name(i) for i in range(self.shard_count)}
        for stale in target.glob("shard-*.bin"):
            if stale.name not in expected:
                stale.unlink()
        self._write_manifest(target, database.name, self.shard_count, shards, wal_block)

    def _save_incremental(
        self,
        database: ImageDatabase,
        target: Path,
        manifest: Dict[str, Any],
        wal_block: Optional[Dict[str, Any]],
    ) -> None:
        shard_count = manifest["shard_count"]
        shards: Dict[str, Dict[str, Any]] = dict(manifest["shards"])
        dirty_shards = {
            shard_index_for(image_id, shard_count) for image_id in database.dirty_ids
        }
        if dirty_shards:
            buckets: Dict[int, List[ImageRecord]] = {index: [] for index in dirty_shards}
            for record in database:
                index = shard_index_for(record.image_id, shard_count)
                if index in dirty_shards:
                    buckets[index].append(record)
            shards.update(self._write_shards(target, buckets))
        self._write_manifest(target, database.name, shard_count, shards, wal_block)

    def _can_update(self, manifest: Dict[str, Any], database: ImageDatabase) -> bool:
        """True when the manifest matches the database outside the dirty set."""
        stored = {
            image_id
            for entry in manifest["shards"].values()
            for image_id in entry["images"]
        }
        dirty = database.dirty_ids
        current = set(database.image_ids)
        return stored - dirty == current - dirty

    @staticmethod
    def _shard_file_name(index: int) -> str:
        return f"shard-{index:04d}.bin"

    def _write_shards(
        self, target: Path, buckets: Dict[int, List[ImageRecord]]
    ) -> Dict[str, Dict[str, Any]]:
        """Write one shard file per bucket and swap them all in at once.

        Returns:
            The manifest's shard-table entries for the written shards.
        """
        shards: Dict[str, Dict[str, Any]] = {}
        swaps = []
        for index, records in sorted(buckets.items()):
            ordered = sorted(records, key=lambda record: record.image_id)
            chunks = [SHARD_MAGIC, struct.pack("<BI", SHARD_FORMAT_VERSION, len(ordered))]
            for record in ordered:
                entry = image_record_to_json(record)
                # Level 1: save latency matters more than the last few percent
                # of ratio, and decompression accepts any level.
                blob = zlib.compress(json.dumps(entry, sort_keys=True).encode("utf-8"), 1)
                chunks.append(struct.pack("<I", len(blob)))
                chunks.append(blob)
            file_name = self._shard_file_name(index)
            temporary = target / (file_name + ".tmp")
            try:
                temporary.write_bytes(b"".join(chunks))
            except OSError as error:
                raise StorageError(f"{target / file_name} cannot be written: {error}") from error
            swaps.append((temporary, target / file_name))
            shards[f"{index:04d}"] = {
                "file": file_name,
                "images": [record.image_id for record in ordered],
            }
        try:
            replace_durably(swaps)
        except OSError as error:
            raise StorageError(f"{target} shard files cannot be swapped in: {error}") from error
        return shards

    def _write_manifest(
        self,
        target: Path,
        name: str,
        shard_count: int,
        shards: Dict[str, Dict[str, Any]],
        wal_block: Optional[Dict[str, Any]],
    ) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "format": MANIFEST_FORMAT,
            "name": name,
            "shard_count": shard_count,
            "shards": {key: shards[key] for key in sorted(shards)},
        }
        if wal_block is not None:
            payload["wal"] = wal_block
        manifest_path = target / MANIFEST_NAME
        temporary = target / (MANIFEST_NAME + ".tmp")
        try:
            temporary.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
            replace_durably([(temporary, manifest_path)])
        except OSError as error:
            raise StorageError(f"{manifest_path} cannot be written: {error}") from error

    # -- loading --------------------------------------------------------
    def load(self, path: PathLike) -> ImageDatabase:
        """Read every shard of a shard directory, validating BE-strings.

        When the manifest carries a ``wal`` block, the write-ahead log's
        records *past* the snapshot LSN are replayed on top of the shard
        contents (upserts replace, deletes remove), so acknowledged writes
        that never reached a shard still load.  A torn log tail — the
        signature of a crash mid-append — silently ends the replay at the
        last intact record; it never fails the load.

        Returns:
            The reconstructed database with a clean dirty set.

        Raises:
            StorageError: on a missing/corrupt manifest, a missing or
                truncated shard file, or failed validation.
            FileNotFoundError: if the directory does not exist.
        """
        source = Path(path)
        if not source.exists():
            raise FileNotFoundError(f"no such shard directory: {source}")
        manifest = self._read_manifest(source)
        entries: List[Dict[str, Any]] = []
        for key in sorted(manifest["shards"]):
            shard_path = source / manifest["shards"][key]["file"]
            entries.extend(self._read_shard(shard_path))
        entries.sort(key=lambda entry: str(entry.get("image_id", "")))
        try:
            database = database_from_entries(manifest.get("name", "image-database"), entries)
        except StorageError as error:
            raise StorageError(f"{source}: {error}") from error
        self._replay_wal(source, manifest, database)
        database.clear_dirty()
        return database

    def _replay_wal(
        self, source: Path, manifest: Dict[str, Any], database: ImageDatabase
    ) -> None:
        """Apply the intact log records past the snapshot LSN to ``database``.

        A manifest without a ``wal`` block or a missing log file replays
        nothing; a torn tail ends the replay at the last intact record.

        Raises:
            StorageError: if the log file exists but is unreadable or is not
                a write-ahead log at all, or a logged entry fails validation.
        """
        wal_info = manifest.get("wal")
        if not wal_info:
            return
        records, _, _ = read_wal(source / wal_info["file"])
        for record in records:
            if record.lsn <= wal_info["snapshot_lsn"]:
                continue
            if record.image_id in database:
                database.remove_picture(record.image_id)
            if record.op == "upsert":
                entry = dict(record.entry or {})
                entry["image_id"] = record.image_id
                try:
                    image_entry_to_record(database, entry)
                except StorageError as error:
                    raise StorageError(
                        f"{source}: write-ahead log record {record.lsn} "
                        f"({record.image_id!r}): {error}"
                    ) from error

    def describe(self, path: PathLike) -> Dict[str, Any]:
        """Summarise a shard directory from its manifest alone.

        Returns:
            Format, schema version, name, image count, shard count and total
            size on disk.

        Raises:
            StorageError: if the manifest is missing or malformed.
        """
        source = Path(path)
        manifest = self._read_manifest(source)
        images = sum(len(entry["images"]) for entry in manifest["shards"].values())
        size = sum(
            (source / entry["file"]).stat().st_size
            for entry in manifest["shards"].values()
            if (source / entry["file"]).exists()
        )
        summary = {
            "format": self.name,
            "path": str(source),
            "schema_version": manifest.get("schema_version"),
            "name": manifest.get("name"),
            "images": images,
            "shard_count": manifest.get("shard_count"),
            "size_bytes": size + (source / MANIFEST_NAME).stat().st_size,
        }
        wal = _wal_state(source, manifest)
        if wal is not None:
            summary["wal"] = wal
        return summary

    @staticmethod
    def _try_manifest(source: Path) -> Optional[Dict[str, Any]]:
        try:
            return ShardedBackend._read_manifest(source)
        except (StorageError, FileNotFoundError):
            return None

    @staticmethod
    def _read_manifest(source: Path) -> Dict[str, Any]:
        manifest_path = source / MANIFEST_NAME
        if not manifest_path.exists():
            raise StorageError(f"{source} has no {MANIFEST_NAME} (not a sharded database)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise StorageError(f"{manifest_path} is not valid JSON: {error}") from error
        except OSError as error:
            raise StorageError(f"{manifest_path} cannot be read: {error}") from error
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
            raise StorageError(
                f"{manifest_path}: unsupported manifest format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
            )
        try:
            check_schema_version(manifest.get("schema_version"))
        except StorageError as error:
            raise StorageError(f"{manifest_path}: {error}") from error
        shards = manifest.get("shards")
        shard_count = manifest.get("shard_count")
        if (
            not isinstance(shards, dict)
            or not isinstance(shard_count, int)
            or shard_count < 1
            or any(
                not isinstance(entry, dict)
                or "file" not in entry
                or not isinstance(entry.get("images"), list)
                for entry in shards.values()
            )
        ):
            raise StorageError(f"{manifest_path}: malformed shard table")
        wal_info = manifest.get("wal")
        if wal_info is not None and (
            not isinstance(wal_info, dict)
            or not isinstance(wal_info.get("file"), str)
            or isinstance(wal_info.get("snapshot_lsn"), bool)
            or not isinstance(wal_info.get("snapshot_lsn"), int)
            or wal_info["snapshot_lsn"] < 0
        ):
            raise StorageError(f"{manifest_path}: malformed wal block")
        return manifest

    @staticmethod
    def _read_shard(shard_path: Path) -> List[Dict[str, Any]]:
        if not shard_path.exists():
            raise StorageError(f"missing shard file: {shard_path}")
        try:
            data = shard_path.read_bytes()
        except OSError as error:
            raise StorageError(f"{shard_path} cannot be read: {error}") from error
        if data[:4] != SHARD_MAGIC:
            raise StorageError(f"{shard_path} is not a shard file (bad magic)")
        try:
            version, count = struct.unpack_from("<BI", data, 4)
        except struct.error as error:
            raise StorageError(f"{shard_path} is truncated: {error}") from error
        if version != SHARD_FORMAT_VERSION:
            raise StorageError(
                f"{shard_path}: unsupported shard version {version} "
                f"(expected {SHARD_FORMAT_VERSION})"
            )
        entries: List[Dict[str, Any]] = []
        offset = 9
        for _ in range(count):
            try:
                (length,) = struct.unpack_from("<I", data, offset)
            except struct.error as error:
                raise StorageError(f"{shard_path} is truncated: {error}") from error
            offset += 4
            blob = data[offset : offset + length]
            if len(blob) != length:
                raise StorageError(f"{shard_path} is truncated (short record)")
            offset += length
            try:
                entry = json.loads(zlib.decompress(blob).decode("utf-8"))
            except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as error:
                raise StorageError(f"{shard_path} holds a corrupt record: {error}") from error
            if not isinstance(entry, dict):
                raise StorageError(f"{shard_path} holds a corrupt record: not an object")
            entries.append(entry)
        return entries


# ----------------------------------------------------------------------
# Durable sharded directories (snapshot + write-ahead log)
# ----------------------------------------------------------------------
def _wal_state(source: Path, manifest: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The log position of the directory ``manifest`` describes (one log scan).

    Returns:
        ``None`` without a ``wal`` block; otherwise ``file``, ``snapshot_lsn``,
        ``last_lsn`` (snapshot floor or log tail, whichever is greater), the
        intact ``pending_records`` past the snapshot, ``clean`` (no torn tail)
        and ``size_bytes``.

    Raises:
        StorageError: if the log exists but is unreadable or not a log.
    """
    wal_info = manifest.get("wal") if manifest else None
    if not wal_info:
        return None
    wal_path = source / wal_info["file"]
    records, _, clean = read_wal(wal_path)
    snapshot_lsn = wal_info["snapshot_lsn"]
    return {
        "file": wal_info["file"],
        "snapshot_lsn": snapshot_lsn,
        "last_lsn": max(snapshot_lsn, records[-1].lsn if records else 0),
        "pending_records": sum(1 for record in records if record.lsn > snapshot_lsn),
        "clean": clean,
        "size_bytes": wal_path.stat().st_size if wal_path.exists() else 0,
    }


def _compact(
    backend: ShardedBackend,
    database: ImageDatabase,
    log: WriteAheadLog,
    snapshot_lsn: int,
    incremental: bool,
) -> int:
    """Fold ``log`` into a shard snapshot of ``database``: the one compaction.

    Every durable snapshot runs these steps, in this order
    (``docs/durability.md``, "Compaction"):

    1. mark dirty every image with a log record past ``snapshot_lsn``.  Step
       3 drops those records, so their shards must be rewritten even when
       nothing in memory marked them (a load replays the log and leaves a
       clean dirty set);
    2. rewrite the dirty shards (or all of them) and swap in a manifest whose
       ``wal`` block covers the log tail;
    3. truncate the log through that LSN.

    Each step is on disk before the next starts, so a crash after any prefix
    recovers to the same state.

    Returns:
        The new snapshot LSN.

    Raises:
        StorageError: if a write fails; the old manifest and the full log
            still replay.
    """
    for record in log.records:
        if record.lsn > snapshot_lsn:
            database.mark_dirty(record.image_id)
    covered = log.last_lsn
    wal_block = {"file": log.path.name, "snapshot_lsn": covered}
    backend._save(database, log.path.parent, incremental, wal_block)
    log.truncate_through(covered)
    return covered


class DurableShardedStore:
    """The live durability handle of a long-running service.

    Binds an in-memory :class:`~repro.index.database.ImageDatabase` to a
    durable shard directory: every acknowledged mutation is first applied in
    memory, then appended to the write-ahead log (fsync'd before the caller
    may ack), while the dirty-id set accumulates until :meth:`compact`
    rewrites the dirty shards and truncates the log behind an atomic
    manifest swap.  A compaction also rewrites the shards of every image
    with a pending log record, so a database loaded from the directory gets
    its replayed delta folded in too -- recovery work never exceeds the
    write delta.

    Thread safety: appends and compaction serialise on an internal lock; the
    service additionally brackets both in its mutation lock so a compaction
    snapshot never interleaves with a half-applied mutation.
    """

    def __init__(
        self,
        database: ImageDatabase,
        path: PathLike,
        *,
        shard_count: Optional[int] = None,
        compact_threshold: int = 256,
    ) -> None:
        """Bind ``database`` to the durable directory at ``path``.

        A fresh or non-durable target gets a full durable snapshot first; an
        existing durable directory is adopted without a write (the caller is
        expected to have loaded ``database`` from it, which replayed the log).

        Raises:
            StorageError: if the target exists in an incompatible format or
                the snapshot/log cannot be written.
            ValueError: on a non-positive ``compact_threshold``.
        """
        if compact_threshold < 1:
            raise ValueError(f"compact_threshold must be >= 1, got {compact_threshold}")
        self.database = database
        self.path = _shard_directory(path)
        self.compact_threshold = compact_threshold
        manifest = ShardedBackend._try_manifest(self.path)
        if shard_count is None and manifest is not None:
            # Upgrading an existing sharded directory keeps its layout.
            shard_count = manifest.get("shard_count")
        self.backend = ShardedBackend(shard_count=shard_count or DEFAULT_SHARD_COUNT)
        self.compactions = 0
        self._lock = threading.Lock()
        wal_info = manifest.get("wal") if manifest else None
        self.snapshot_lsn = wal_info["snapshot_lsn"] if wal_info else 0
        log_name = wal_info["file"] if wal_info else WAL_NAME
        self.wal = WriteAheadLog(self.path / log_name, floor_lsn=self.snapshot_lsn)
        if wal_info is None:
            self.snapshot_lsn = _compact(self.backend, database, self.wal, 0, incremental=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The LSN of the most recent acknowledged mutation."""
        return self.wal.last_lsn

    @property
    def pending_records(self) -> int:
        """Log records not yet covered by the shard snapshot."""
        return self.wal.pending_past(self.snapshot_lsn)

    @property
    def wal_size_bytes(self) -> int:
        """Current on-disk size of the write-ahead log file (0 if missing)."""
        try:
            return self.wal.path.stat().st_size
        except OSError:
            return 0

    def should_compact(self) -> bool:
        """Whether the pending delta has reached the compaction threshold."""
        return self.pending_records >= self.compact_threshold

    # ------------------------------------------------------------------
    # Logging (call after applying the mutation in memory; ack on return)
    # ------------------------------------------------------------------
    def log_upsert(self, record: ImageRecord) -> int:
        """Durably log an added/replaced image; returns its LSN once fsync'd."""
        entry = image_record_to_json(record)
        with self._lock:
            return self.wal.append("upsert", record.image_id, entry)

    def log_delete(self, image_id: str) -> int:
        """Durably log a removal; returns its LSN once fsync'd."""
        with self._lock:
            return self.wal.append("delete", image_id)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Fold the pending delta into the shards and truncate the log.

        Runs the one crash-ordered compaction: rewrite the shards of every
        dirty or logged image, swap in a manifest whose snapshot LSN is the
        current log tail, then truncate the log.  A crash after any prefix
        recovers identically: shard rewrites without the manifest are
        reconciled by replay, and an untrimmed log behind a new manifest is
        skipped by the snapshot-LSN check.

        Returns:
            The new snapshot LSN.

        Raises:
            StorageError: if any write fails; the on-disk state stays
                recoverable (the old manifest + full log still replay).
        """
        with self._lock:
            self.snapshot_lsn = _compact(
                self.backend, self.database, self.wal, self.snapshot_lsn, incremental=True
            )
            self.compactions += 1
            return self.snapshot_lsn

    def rebind(self, database: ImageDatabase) -> None:
        """Point the store at a replacement in-memory database (hot reload).

        The replacement is expected to reflect the on-disk state (snapshot +
        replayed log); the next compaction rewrites the shards of the
        pending log records on it, as it does on every database.
        """
        with self._lock:
            self.database = database

    def close(self) -> None:
        """Close the log file handle (idempotent; no implicit compaction)."""
        self.wal.close()

    def __enter__(self) -> "DurableShardedStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Registry, inference and dispatch
# ----------------------------------------------------------------------
#: Backend registry, keyed by the names a writer's ``backend`` argument or
#: ``--format``/``--to`` flag accepts.
BACKENDS = {
    JsonBackend.name: JsonBackend,
    ShardedBackend.name: ShardedBackend,
}


def get_backend(
    backend: Union[None, str, StorageBackend],
    path: Optional[PathLike] = None,
    shard_count: Optional[int] = None,
) -> StorageBackend:
    """Resolve a backend from a name, an instance, or (via ``path``) inference.

    Returns:
        A :class:`StorageBackend` instance; ``shard_count`` configures the
        sharded backend when it is selected (ignored otherwise).

    Raises:
        ValueError: on an unknown backend name, or when neither a backend nor
            a path to infer from is given.
    """
    if isinstance(backend, StorageBackend):
        return backend
    if backend is None or backend == "auto":
        if path is None:
            raise ValueError("either a backend name or a path to infer from is required")
        return infer_backend(path, shard_count=shard_count)
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown storage backend {backend!r} (expected one of {sorted(BACKENDS)})"
        ) from None
    if issubclass(factory, ShardedBackend) and shard_count is not None:
        return factory(shard_count=shard_count)
    return factory()


def infer_backend(
    path: PathLike, shard_count: Optional[int] = None
) -> StorageBackend:
    """Infer the backend for ``path``: by kind if it exists, by suffix if not.

    An existing directory is sharded and an existing file is JSON.  A fresh
    path goes by suffix: ``.shards`` (or no suffix at all) → sharded
    directory, anything else → JSON.

    Returns:
        A :class:`StorageBackend` instance.

    Raises:
        StorageError: if ``path`` is a SQLite database file, which an earlier
            release must convert first.
    """
    target = Path(path)
    if target.is_dir():
        return ShardedBackend(shard_count=shard_count or DEFAULT_SHARD_COUNT)
    if target.is_file():
        _refuse_sqlite(target)
        return JsonBackend()
    if target.suffix.lower() in (_SHARDED_SUFFIX, ""):
        return ShardedBackend(shard_count=shard_count or DEFAULT_SHARD_COUNT)
    return JsonBackend()


def save_database_to(
    database: ImageDatabase,
    path: PathLike,
    backend: Union[None, str, StorageBackend] = None,
    *,
    incremental: bool = False,
    shard_count: Optional[int] = None,
    durable: bool = False,
) -> Path:
    """Persist ``database`` with an explicit or path-inferred backend.

    ``durable=True`` requires the sharded backend and saves through the one
    compaction :meth:`DurableShardedStore.compact` runs: the shards of every
    image with a pending log record are rewritten, then the log is truncated.

    Returns:
        The path written.

    Raises:
        ValueError: on an unknown backend name, or ``durable=True`` with a
            backend that has no write-ahead log support.
        StorageError: if the target exists in an incompatible format.
    """
    resolved = get_backend(backend, path, shard_count=shard_count)
    if not durable:
        return resolved.save(database, path, incremental=incremental)
    if not isinstance(resolved, ShardedBackend):
        raise ValueError(
            "durable persistence requires the sharded backend, "
            f"not {resolved.name!r} (target: {path})"
        )
    target = _shard_directory(path)
    manifest = resolved._try_manifest(target)
    snapshot_lsn = manifest["wal"]["snapshot_lsn"] if manifest and manifest.get("wal") else 0
    with WriteAheadLog(target / WAL_NAME, floor_lsn=snapshot_lsn) as log:
        _compact(resolved, database, log, snapshot_lsn, incremental)
    return target


def load_database_from(path: PathLike, *, durable: bool = False) -> ImageDatabase:
    """Load a database in the format its path holds (:func:`infer_backend`).

    A sharded directory whose manifest anchors a write-ahead log replays
    the pending log records automatically, whatever ``durable`` says;
    ``durable=True`` merely *requires* the target to be sharded, so a caller
    about to attach a :class:`DurableShardedStore` fails fast on a format
    that cannot carry one.  The load, replay included, runs with the cyclic
    garbage collector paused: it builds only acyclic, long-lived records.

    Returns:
        The reconstructed database with a clean dirty set.

    Raises:
        StorageError: if the target is corrupt, fails validation or is a
            SQLite file (the message names the offending path).
        ValueError: on ``durable=True`` against a non-sharded database.
        FileNotFoundError: if ``path`` does not exist.
    """
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no such database: {source}")
    resolved = infer_backend(source)
    if durable and not isinstance(resolved, ShardedBackend):
        raise ValueError(
            "durable persistence requires a sharded database directory, "
            f"not {resolved.name!r} (target: {source})"
        )
    with _collector_paused():
        return resolved.load(source)


def describe_database(path: PathLike) -> Dict[str, Any]:
    """Summarise a stored database (format, schema, counts, size).

    Returns:
        The backend's :meth:`StorageBackend.describe` dictionary.

    Raises:
        StorageError: if the target is not a recognisable database, a SQLite
            file included.
        FileNotFoundError: if ``path`` does not exist.
    """
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no such database: {source}")
    return infer_backend(source).describe(source)


def durable_wal_state(path: PathLike) -> Optional[Dict[str, int]]:
    """The log position of a durable directory, read without loading it.

    The replica's polling primitive: one manifest read plus one log scan,
    cheap enough to call every follow interval, through the same reader as
    ``describe_database(path)["wal"]``.  Both reads are of
    atomically-replaced files, so the answer is always a state the primary
    actually committed (possibly one compaction behind the very latest).

    Returns:
        ``{"snapshot_lsn", "last_lsn", "pending_records"}`` -- the LSN the
        shard snapshot covers, the highest LSN the directory knows (snapshot
        floor or log tail, whichever is greater), and the count of intact
        log records past the snapshot; ``None`` when the directory is not a
        durable sharded database (no manifest or no ``wal`` block).

    Raises:
        StorageError: if the manifest or log exists but is unreadable.
    """
    source = Path(path)
    state = _wal_state(source, ShardedBackend._try_manifest(source))
    if state is None:
        return None
    return {key: state[key] for key in ("snapshot_lsn", "last_lsn", "pending_records")}
