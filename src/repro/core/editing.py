"""Dynamic maintenance of stored BE-strings (Section 3.2, closing paragraph).

The paper notes that because the 2D BE-string is *ordered* data, saving it
together with the MBR coordinates lets a database insert a new object by
binary search on the ``(coordinate, identifier)`` key -- deciding locally
whether a dummy object must be added around the new boundaries -- and delete
an object by removing its two boundary symbols and eliminating any redundant
dummy.

:class:`IndexedBEString` is that stored form: per axis it keeps the boundary
records sorted by the paper's key, so

* ``insert`` locates each new boundary with :mod:`bisect` (O(log n) search,
  O(n) memmove -- no re-sort), and
* ``remove`` deletes the two records per axis,

and the BE-string itself is re-emitted from the already-sorted records in a
single O(n) pass with no sorting, versus the O(n log n) full re-encoding of
``Convert-2D-Be-String``.  Benchmark E7 measures the difference.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.construct import BoundaryKey, _emit_axis, boundary_keys
from repro.core.errors import EncodingError
from repro.geometry.rectangle import Rectangle
from repro.iconic.icon import IconObject
from repro.iconic.picture import SymbolicPicture


@dataclass
class IndexedBEString:
    """A 2D BE-string stored with its MBR coordinates for dynamic updates."""

    width: float
    height: float
    name: str = ""
    _x_keys: List[BoundaryKey] = field(default_factory=list)
    _y_keys: List[BoundaryKey] = field(default_factory=list)
    _mbrs: Dict[str, Rectangle] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise EncodingError("the image frame must have positive extent")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_picture(cls, picture: SymbolicPicture) -> "IndexedBEString":
        """Index every icon of a symbolic picture."""
        index = cls(width=picture.width, height=picture.height, name=picture.name)
        for icon in picture.icons:
            index.insert(icon.identifier, icon.mbr)
        return index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._mbrs)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._mbrs

    @property
    def identifiers(self) -> List[str]:
        """Identifiers of all indexed objects, sorted."""
        return sorted(self._mbrs)

    def mbr(self, identifier: str) -> Rectangle:
        """MBR stored for ``identifier``."""
        try:
            return self._mbrs[identifier]
        except KeyError:
            raise KeyError(f"no object {identifier!r} in the indexed BE-string") from None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, identifier: str, mbr: Rectangle) -> None:
        """Insert a new object by binary search on the boundary keys."""
        if identifier in self._mbrs:
            raise EncodingError(f"object {identifier!r} is already indexed")
        frame = Rectangle(0.0, 0.0, self.width, self.height)
        if not frame.contains(mbr):
            raise EncodingError(
                f"object {identifier!r} MBR {mbr} exceeds the "
                f"{self.width:g}x{self.height:g} frame"
            )
        for keys, key in self._keys_of(identifier, mbr):
            insort(keys, key)
        self._mbrs[identifier] = mbr

    def insert_icon(self, icon: IconObject) -> None:
        """Insert an :class:`~repro.iconic.icon.IconObject`."""
        self.insert(icon.identifier, icon.mbr)

    def remove(self, identifier: str) -> Rectangle:
        """Remove an object; returns the MBR it had."""
        mbr = self.mbr(identifier)
        for keys, key in self._keys_of(identifier, mbr):
            position = bisect_left(keys, key)
            if position >= len(keys) or keys[position] != key:
                raise EncodingError(
                    f"boundary record of {identifier!r} not found; index corrupted"
                )
            keys.pop(position)
        del self._mbrs[identifier]
        return mbr

    def _keys_of(
        self, identifier: str, mbr: Rectangle
    ) -> Iterator[Tuple[List[BoundaryKey], BoundaryKey]]:
        """Each of an object's four boundary keys, with its axis's key list."""
        for keys, (begin, end) in (
            (self._x_keys, (mbr.x_begin, mbr.x_end)),
            (self._y_keys, (mbr.y_begin, mbr.y_end)),
        ):
            for key in boundary_keys(identifier, begin, end):
                yield keys, key

    def move(self, identifier: str, mbr: Rectangle) -> None:
        """Relocate an object (remove + insert with the new MBR)."""
        self.remove(identifier)
        self.insert(identifier, mbr)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _axis_string(self, keys: List[BoundaryKey], extent: float) -> AxisBEString:
        # The keys are already sorted by construction; the emitter's sort is
        # then a no-op O(n) pass for Timsort, keeping emission linear.
        return _emit_axis(list(keys), extent, 0.0)

    def to_bestring(self) -> BEString2D:
        """Emit the current 2D BE-string from the sorted boundary records."""
        return BEString2D(
            x=self._axis_string(self._x_keys, self.width),
            y=self._axis_string(self._y_keys, self.height),
            name=self.name,
        )

    def to_picture(self) -> SymbolicPicture:
        """Reconstruct the symbolic picture currently indexed."""
        icons = []
        for identifier, mbr in self._mbrs.items():
            label, _, instance_text = identifier.partition("#")
            instance = int(instance_text) if instance_text else 0
            icons.append(IconObject(label=label, mbr=mbr, instance=instance))
        return SymbolicPicture(
            width=self.width, height=self.height, icons=tuple(icons), name=self.name
        )
