"""JSON persistence for pictures, BE-strings and whole databases.

The paper stores the 2D BE-strings of every image in the database; this module
provides the serialisation a real deployment needs: a stable, human-readable
JSON schema with a version field, plus save/load helpers for whole databases.
Round-tripping is exact (validated by tests): every stored picture is
re-encoded on load and the stored BE-string is compared against the
re-encoding, so a corrupted file is detected rather than silently accepted.
The comparison is on the stored text: a stored string equal to the
re-encoding's text form is accepted without being parsed, and only a string
whose text differs (for instance in whitespace) is parsed into symbols and
compared symbol by symbol.  Labels never hold whitespace
(:class:`~repro.iconic.icon.IconObject` rejects it), so equal text always
means equal symbols.  Everything else the engine keeps per image, the
shortlist signature included, is derived from the validated BE-string, so an
entry stores only ``image_id``, ``picture`` and ``bestring``; a ``signature``
payload left by older writers is ignored.

This module is the **v1 JSON format**; the pluggable backend layer on top of
it (sharded binary files, format inference, incremental saves) lives in
:mod:`repro.index.backends`.  The functions here stay byte-compatible with
databases written before the backend layer existed.  A save writes a
temporary file and swaps it in whole, so the file on disk is always either
the previous database or the new one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.bestring import BEString2D
from repro.core.construct import encode_picture
from repro.iconic.picture import SymbolicPicture
from repro.index.database import DatabaseError, ImageDatabase, ImageRecord

#: Schema version written into every database file.
SCHEMA_VERSION = 1


class StorageError(ValueError):
    """Raised when a database file is malformed or inconsistent."""


def database_to_json(database: ImageDatabase) -> Dict[str, Any]:
    """Serialise a database to a JSON-compatible dictionary."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": database.name,
        "images": [image_record_to_json(record) for record in database],
    }


def image_record_to_json(record: ImageRecord) -> Dict[str, Any]:
    """Serialise one stored image to its JSON-compatible entry dictionary.

    Returns:
        A dictionary with ``image_id``, ``picture`` and ``bestring`` keys —
        the per-image unit shared by every storage backend.
    """
    return {
        "image_id": record.image_id,
        "picture": record.picture.to_dict(),
        "bestring": record.bestring.to_dict(),
    }


def image_entry_to_record(database: ImageDatabase, entry: Dict[str, Any]) -> ImageRecord:
    """Validate one image entry and add it to ``database``.

    The stored BE-string is checked against a re-encoding of the stored
    picture, so a corrupted entry is detected rather than silently accepted;
    a rejected entry leaves ``database`` unchanged.  Any other key, such as
    the ``signature`` payload older writers stored, is ignored: the engine
    derives the shortlist signature from the validated BE-string.

    Returns:
        The stored :class:`~repro.index.database.ImageRecord`.

    Raises:
        StorageError: if the entry is malformed (its ``image_id`` not a
            non-empty string, or already stored, included) or its BE-string
            does not match its picture.
    """
    try:
        picture = SymbolicPicture.from_dict(entry["picture"])
        stored = entry["bestring"]
        image_id = entry["image_id"]
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(f"malformed image entry: {error}") from error
    if not isinstance(image_id, str) or not image_id:
        raise StorageError(
            f"malformed image entry: image id {image_id!r} must be a non-empty string"
        )
    record = database.encode_record(picture, image_id)
    # Labels hold no whitespace, so equal text means equal symbols.
    if record.bestring.to_dict() != stored:
        try:
            stored_bestring = BEString2D.from_dict(stored)
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(f"malformed image entry: {error}") from error
        if record.bestring != stored_bestring:
            raise StorageError(
                f"stored BE-string of image {image_id!r} does not match its picture"
            )
    try:
        return database.add_record(record)
    except DatabaseError as error:
        raise StorageError(
            f"malformed image entry: image id {image_id!r} is stored twice"
        ) from error


def check_schema_version(version: Any) -> None:
    """Raise :class:`StorageError` unless ``version`` is the supported one.

    Raises:
        StorageError: if ``version`` differs from :data:`SCHEMA_VERSION`.
    """
    if version != SCHEMA_VERSION:
        raise StorageError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )


def database_from_entries(name: str, entries: List[Any]) -> ImageDatabase:
    """Build a database from decoded image entries, consuming ``entries``.

    This is the per-entry loop of every loader that decodes all its entries
    first.  ``entries`` must be a list the caller owns and no longer reads:
    each slot is set to ``None`` once :func:`image_entry_to_record` has
    stored its record, so each decoded entry is freed while the later
    records are built rather than after the last one.

    Returns:
        The database named ``name``, with a clean dirty set.

    Raises:
        StorageError: if an entry is malformed or inconsistent.
    """
    database = ImageDatabase(name=name)
    for index, entry in enumerate(entries):
        image_entry_to_record(database, entry)
        entries[index] = None
    database.clear_dirty()
    return database


def document_images(payload: Any) -> List[Any]:
    """The ``images`` list of a decoded v1 document (``[]`` when absent).

    Raises:
        StorageError: unless ``payload`` is an object whose ``images``, if
            present, is a list.
    """
    images = payload.get("images", []) if isinstance(payload, dict) else None
    if not isinstance(images, list):
        raise StorageError('bad structure: expected an object with an "images" list')
    return images


def database_from_json(payload: Dict[str, Any]) -> ImageDatabase:
    """Rebuild a database from :func:`database_to_json` output.

    The stored BE-string of every image is checked against a re-encoding of
    the stored picture; a mismatch raises :class:`StorageError`.
    ``payload`` is left as it was: the entries are read from a copy of its
    ``images`` list.

    Returns:
        The reconstructed :class:`~repro.index.database.ImageDatabase` with a
        clean dirty set.

    Raises:
        StorageError: on a document that is not an object holding an image
            list, an unsupported schema version, or a malformed or
            inconsistent image entry.
    """
    return _database_from_payload(payload, list(document_images(payload)))


def _database_from_payload(payload: Dict[str, Any], entries: List[Any]) -> ImageDatabase:
    """Check ``payload``'s schema and build its database from ``entries``.

    ``entries`` is the payload's image list or a copy of it;
    :func:`database_from_entries` consumes it.
    """
    check_schema_version(payload.get("schema_version"))
    return database_from_entries(payload.get("name", "image-database"), entries)


def save_database(database: ImageDatabase, path: Union[str, Path]) -> Path:
    """Write a database to a v1 JSON file, swapped in whole.

    The document goes to ``<name>.tmp`` beside the target, which
    :func:`~repro.index.wal.replace_durably` then renames over it, so the
    target holds the previous database or this one, never a part of either.

    Returns:
        The path written (parents are created as needed).

    Raises:
        StorageError: if the file cannot be written; the previous file is
            left as it was and the temporary one is removed.
    """
    # wal imports this module for StorageError.
    from repro.index.wal import replace_durably

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(target.name + ".tmp")
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            json.dump(database_to_json(database), handle, indent=2, sort_keys=True)
        replace_durably([(temporary, target)])
    except OSError as error:
        temporary.unlink(missing_ok=True)
        raise StorageError(f"{target} cannot be written: {error}") from error
    return target


def load_database(path: Union[str, Path]) -> ImageDatabase:
    """Read a database from a JSON file written by :func:`save_database`.

    Returns:
        The reconstructed :class:`~repro.index.database.ImageDatabase`.

    Raises:
        StorageError: if the file is truncated, not valid JSON/UTF-8, not
            an object holding an image list, or fails the schema and
            BE-string consistency checks; the message names the offending
            path.
        FileNotFoundError: if ``path`` does not exist.
    """
    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as error:
        raise StorageError(f"{source} is not valid JSON: {error}") from error
    except UnicodeDecodeError as error:
        raise StorageError(f"{source} is not valid UTF-8 text: {error}") from error
    try:
        # The decoded document is this function's own: hand its entries over.
        return _database_from_payload(payload, document_images(payload))
    except StorageError as error:
        raise StorageError(f"{source}: {error}") from error


def picture_to_json_text(picture: SymbolicPicture) -> str:
    """Serialise a single picture to a JSON string."""
    return json.dumps(picture.to_dict(), indent=2, sort_keys=True)


def picture_from_json_text(text: str) -> SymbolicPicture:
    """Parse a single picture from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise StorageError(f"invalid picture JSON: {error}") from error
    return SymbolicPicture.from_dict(payload)


def bestring_for_file(picture: SymbolicPicture) -> Dict[str, Any]:
    """Encode a picture and return the JSON form of its BE-string."""
    return encode_picture(picture).to_dict()
