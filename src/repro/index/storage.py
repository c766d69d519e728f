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
means equal symbols.  The shortlist reads its bounds from the validated
BE-string, so an entry stores only ``image_id``, ``picture`` and
``bestring``; a ``signature`` payload left by older writers is ignored.

This module is the **v1 JSON format**; the pluggable backend layer on top of
it (sharded binary files, format inference, incremental saves) lives in
:mod:`repro.index.backends`.  The functions here stay byte-compatible with
databases written before the backend layer existed.  A save writes a
temporary file and swaps it in whole, so the file on disk is always either
the previous database or the new one.  A load walks the document's top level
itself and builds each image as soon as its entry is scanned, so the whole
decoded document never exists at once (``docs/storage-formats.md``).
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, scanstring
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

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
    the ``signature`` payload older writers stored, is ignored: the
    shortlist reads the validated BE-string itself.

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


_BAD_STRUCTURE = 'bad structure: expected an object with an "images" list'


def document_images(payload: Any) -> List[Any]:
    """The ``images`` list of a decoded v1 document (``[]`` when absent).

    Raises:
        StorageError: unless ``payload`` is an object whose ``images``, if
            present, is a list.
    """
    images = payload.get("images", []) if isinstance(payload, dict) else None
    if not isinstance(images, list):
        raise StorageError(_BAD_STRUCTURE)
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
    entries = list(document_images(payload))
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

    The document is decoded one image entry at a time
    (:func:`_database_from_text`), with the refusals and the precedence
    ``json.load`` followed by :func:`database_from_json` would give, except
    that a repeated ``images`` key is refused.

    Returns:
        The reconstructed :class:`~repro.index.database.ImageDatabase`.

    Raises:
        StorageError: if the file is truncated, not valid JSON/UTF-8, not
            an object holding one image list, or fails the schema and
            BE-string consistency checks; the message names the offending
            path.
        FileNotFoundError: if ``path`` does not exist.
    """
    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise StorageError(f"{source} is not valid UTF-8 text: {error}") from error
    try:
        return _database_from_text(text)
    except json.JSONDecodeError as error:
        raise StorageError(f"{source} is not valid JSON: {error}") from error
    except StorageError as error:
        raise StorageError(f"{source}: {error}") from error


_scan_once = json.JSONDecoder().scan_once
_skip = WHITESPACE.match
#: The top-level keys besides ``images`` a load reads; others are skipped.
_HEADER_KEYS = ("name", "schema_version")


def _scan(text: str, end: int) -> Tuple[Any, int]:
    """The JSON value at ``text[end]`` and the index after it.

    ``scan_once`` reports a missing value with ``StopIteration``; it becomes
    the ``JSONDecodeError`` that ``json.loads`` raises.
    """
    try:
        return _scan_once(text, end)
    except StopIteration as error:
        raise json.JSONDecodeError("Expecting value", text, error.value) from None


def _database_from_text(text: str) -> ImageDatabase:
    """Build the database of a v1 document, one ``images`` entry at a time.

    The top-level object is walked here, its keys in any order.  Each entry
    of ``images`` goes to :func:`image_entry_to_record` as soon as it is
    scanned; ``name`` and ``schema_version`` are applied when the walk ends,
    and other keys are scanned and dropped.  Refusals come in the order
    ``json.load`` and :func:`database_from_json` give them: a syntax error
    anywhere in the text, then a bad structure (a top level that is not an
    object, an ``images`` that is not a list, a repeated ``images`` key),
    then the schema version, then the first bad entry.  After a bad
    structure or entry the walk stores nothing more and only checks the
    rest of the text.

    Raises:
        json.JSONDecodeError: if ``text`` is not one JSON value.
        StorageError: on a bad structure, schema version or entry.
    """
    end = _skip(text, 0).end()
    if text[end : end + 1] != "{":
        # Not an object: decoded whole, so a syntax error is reported as
        # json.loads reports it, and refused.
        json.loads(text)
        raise StorageError(_BAD_STRUCTURE)
    database = ImageDatabase()
    header: Dict[str, Any] = {}
    structure: Optional[StorageError] = None
    entry_error: Optional[StorageError] = None
    seen_images = False
    end = _skip(text, end + 1).end()
    if text[end : end + 1] == "}":
        end += 1
    else:
        while True:
            if text[end : end + 1] != '"':
                raise json.JSONDecodeError(
                    "Expecting property name enclosed in double quotes", text, end
                )
            key, end = scanstring(text, end + 1)
            end = _skip(text, end).end()
            if text[end : end + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", text, end)
            end = _skip(text, end + 1).end()
            if key != "images":
                value, end = _scan(text, end)
                if key in _HEADER_KEYS:
                    header[key] = value
            elif seen_images or text[end : end + 1] != "[":
                _, end = _scan(text, end)
                if structure is None:
                    structure = StorageError(
                        'bad structure: the "images" key is repeated'
                        if seen_images
                        else _BAD_STRUCTURE
                    )
                seen_images = True
            else:
                seen_images = True
                building = structure is None and entry_error is None
                end, entry_error = _walk_images(text, end, database if building else None)
            end = _skip(text, end).end()
            separator = text[end : end + 1]
            if separator == "}":
                end += 1
                break
            if separator != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
            end = _skip(text, end + 1).end()
    end = _skip(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    if structure is not None:
        raise structure
    check_schema_version(header.get("schema_version"))
    if entry_error is not None:
        raise entry_error
    database.name = header.get("name", "image-database")
    database.clear_dirty()
    return database


def _walk_images(
    text: str, end: int, database: Optional[ImageDatabase]
) -> Tuple[int, Optional[StorageError]]:
    """Walk the ``images`` array opening at ``text[end]``, storing its entries.

    Each entry is stored in ``database`` as soon as it is scanned, until one
    is refused; with ``database`` ``None`` the entries are only scanned.

    Returns:
        The index after the array, and the first entry's refusal, if any.
    """
    refusal: Optional[StorageError] = None
    end = _skip(text, end + 1).end()
    if text[end : end + 1] == "]":
        return end + 1, None
    while True:
        entry, end = _scan(text, end)
        if database is not None and refusal is None:
            try:
                image_entry_to_record(database, entry)
            except StorageError as error:
                refusal = error
        end = _skip(text, end).end()
        separator = text[end : end + 1]
        if separator == "]":
            return end + 1, refusal
        if separator != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
        end = _skip(text, end + 1).end()


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
