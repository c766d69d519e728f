"""The image database: symbolic pictures stored with their 2D BE-strings."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.core.bestring import BEString2D
from repro.core.construct import encode_picture
from repro.core.editing import IndexedBEString
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture


class DatabaseError(KeyError):
    """Raised on unknown image ids or duplicate registrations."""


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one bulk build.

    A load allocates containers by the hundred thousand (decoded entries,
    pictures, symbol tuples, label counts), all acyclic, so every collection
    their allocation would trigger finds nothing, and a full one also walks
    every engine already alive.  Reference counting frees what the build
    drops; anything cyclic waits for a later collection.  The pause nests
    (an inner pause finds the collector off and leaves it off), survives
    exceptions, and restores the state the caller had.  The collector is
    process-wide: other threads run without it meanwhile.

    When the outermost pause ends after a build that succeeded and left more
    young objects than the collector's first threshold, switching it back on
    would start a young collection at once, which walks everything the build
    made.  Instead every young object is promoted to the oldest generation
    unwalked (``gc.freeze()`` then ``gc.unfreeze()``), unless the caller has
    frozen objects of its own, which a promotion would thaw.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    except BaseException:
        if enabled:
            gc.enable()
        raise
    if enabled:
        if gc.get_count()[0] > gc.get_threshold()[0] and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()


@dataclass
class ImageRecord:
    """One stored image: the picture, its BE-string, and its dynamic index.

    The BE-string is always the validated encoding of the picture: a loader
    checks a stored one against a re-encoding, and every edit refreshes it.
    The shortlist reads a candidate's bounds from it
    (:func:`~repro.index.shortlist.signature_for`) and keeps no index of its
    own per record.
    """

    image_id: str
    picture: SymbolicPicture
    bestring: BEString2D
    _indexed: Optional[IndexedBEString] = field(default=None, repr=False, compare=False)

    @property
    def indexed(self) -> IndexedBEString:
        """The Section 3.2 dynamic index, built from the picture on first use.

        Only object-level edits read it, so loads and whole-image inserts
        never pay for it; every edit keeps it in step with :attr:`picture`.
        """
        if self._indexed is None:
            self._indexed = IndexedBEString.from_picture(self.picture)
        return self._indexed

    @property
    def object_count(self) -> int:
        """Number of icon objects in the stored image."""
        return len(self.picture)

    @property
    def storage_symbols(self) -> int:
        """Total BE-string symbols stored for this image (both axes)."""
        return self.bestring.total_symbols


@dataclass
class ImageDatabase:
    """An in-memory image database keyed by image id.

    Whole images are added and removed; single objects inside a stored image
    are added and removed through the dynamic
    :class:`~repro.core.editing.IndexedBEString` exactly as Section 3.2 of the
    paper describes, with the stored BE-string refreshed from the index.
    """

    name: str = "image-database"
    _records: Dict[str, ImageRecord] = field(default_factory=dict)
    #: Image ids mutated (added, removed, or edited) since :meth:`clear_dirty`.
    #: Removed ids stay in the set so incremental storage backends know which
    #: shards/rows to rewrite; see :mod:`repro.index.backends`.
    _dirty: Set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    # Whole-image operations
    # ------------------------------------------------------------------
    def add_picture(self, picture: SymbolicPicture, image_id: Optional[str] = None) -> ImageRecord:
        """Encode and store a picture; returns the stored record.

        ``image_id`` defaults to the picture's name; an id must be unique.

        Returns:
            The stored :class:`ImageRecord`.

        Raises:
            DatabaseError: if no id is available or the id is already stored.
        """
        return self.add_record(self.encode_record(picture, image_id))

    @staticmethod
    def encode_record(picture: SymbolicPicture, image_id: Optional[str] = None) -> ImageRecord:
        """Encode a picture into a record without storing it.

        Loaders check the record against what a file stored before they
        :meth:`add_record` it, so a rejected entry never reaches the database.

        When the id equals the picture's name, the record keeps the name's
        string as its id rather than a second copy.

        Raises:
            DatabaseError: if ``image_id`` is not a string, or neither it
                nor the picture names the image.
        """
        if image_id is not None and not isinstance(image_id, str):
            raise DatabaseError(f"image id {image_id!r} must be a non-empty string")
        identifier = image_id or picture.name
        if not identifier:
            raise DatabaseError("an image id is required (picture has no name)")
        if picture.name == identifier:
            identifier = picture.name
        else:
            picture = picture.renamed(identifier)
        return ImageRecord(image_id=identifier, picture=picture, bestring=encode_picture(picture))

    def add_record(self, record: ImageRecord) -> ImageRecord:
        """Store a record built by :meth:`encode_record`; returns it.

        Raises:
            DatabaseError: if the record's id is already stored.
        """
        if record.image_id in self._records:
            raise DatabaseError(f"image id {record.image_id!r} is already stored")
        self._records[record.image_id] = record
        self.mark_dirty(record.image_id)
        return record

    def add_pictures(self, pictures: List[SymbolicPicture]) -> List[ImageRecord]:
        """Store several pictures (ids taken from their names)."""
        return [self.add_picture(picture) for picture in pictures]

    def remove_picture(self, image_id: str) -> ImageRecord:
        """Remove a stored image and return its record.

        Raises:
            DatabaseError: if no image with ``image_id`` is stored.
        """
        try:
            record = self._records.pop(image_id)
        except KeyError:
            raise DatabaseError(f"no image with id {image_id!r}") from None
        self.mark_dirty(image_id)
        return record

    def get(self, image_id: str) -> ImageRecord:
        """Fetch a stored record by id.

        Raises:
            DatabaseError: if no image with ``image_id`` is stored.
        """
        try:
            return self._records[image_id]
        except KeyError:
            raise DatabaseError(f"no image with id {image_id!r}") from None

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self._records.values())

    @property
    def image_ids(self) -> List[str]:
        """Ids of all stored images, sorted."""
        return sorted(self._records)

    # ------------------------------------------------------------------
    # Object-level (dynamic) operations
    # ------------------------------------------------------------------
    def add_object(self, image_id: str, label: str, mbr: Rectangle) -> ImageRecord:
        """Add one icon object to a stored image via the dynamic index.

        The new picture is built, and so checked, before the index is touched:
        a rejected icon (``ValueError``) leaves the record as it was.
        """
        record = self.get(image_id)
        picture = record.picture.add_icon(label, mbr)
        record.indexed.insert(picture.icons_with_label(label)[-1].identifier, mbr)
        record.picture = picture
        record.bestring = record.indexed.to_bestring()
        self.mark_dirty(image_id)
        return record

    def remove_object(self, image_id: str, identifier: str) -> ImageRecord:
        """Remove one icon object from a stored image via the dynamic index."""
        record = self.get(image_id)
        record.indexed.remove(identifier)
        record.picture = record.picture.remove_icon(identifier)
        record.bestring = record.indexed.to_bestring()
        self.mark_dirty(image_id)
        return record

    # ------------------------------------------------------------------
    # Dirty tracking (incremental persistence)
    # ------------------------------------------------------------------
    def mark_dirty(self, image_id: str) -> None:
        """Record that ``image_id`` changed since the last save/load.

        Called automatically by every mutating operation; incremental storage
        backends (see :mod:`repro.index.backends`) use the accumulated set to
        rewrite only the shards or rows that actually changed.
        """
        self._dirty.add(image_id)

    @property
    def dirty_ids(self) -> FrozenSet[str]:
        """Ids mutated since the last :meth:`clear_dirty` (includes removals).

        Returns:
            A frozen snapshot of the dirty-id set.
        """
        return frozenset(self._dirty)

    def clear_dirty(self) -> None:
        """Reset the dirty set (storage backends call this after a save/load)."""
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_objects(self) -> int:
        """Total number of icon objects across all stored images."""
        return sum(record.object_count for record in self._records.values())

    def total_storage_symbols(self) -> int:
        """Total BE-string symbols stored across all images."""
        return sum(record.storage_symbols for record in self._records.values())

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by the examples and benchmark reports."""
        images = len(self._records)
        objects = self.total_objects()
        symbols = self.total_storage_symbols()
        return {
            "images": float(images),
            "objects": float(objects),
            "symbols": float(symbols),
            "objects_per_image": objects / images if images else 0.0,
            "symbols_per_object": symbols / objects if objects else 0.0,
        }
