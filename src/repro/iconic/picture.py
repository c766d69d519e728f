"""Symbolic pictures: the frame plus the icons the paper's algorithms consume."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.geometry.rectangle import Rectangle
from repro.geometry.relations import SpatialRelation, spatial_relation
from repro.iconic.icon import IconObject


class PictureError(ValueError):
    """Raised when a symbolic picture is constructed inconsistently."""


@dataclass(frozen=True, init=False)
class SymbolicPicture:
    """An image abstracted to its icon objects and their MBRs.

    ``width`` and ``height`` are the maximum coordinates ``X_max`` / ``Y_max``
    of the paper's Algorithm 1: they determine whether a leading/trailing
    dummy object is inserted when the leftmost/rightmost (bottom-/top-most)
    boundary does not touch the image edge.

    The picture is immutable; editing operations return new pictures.  Icons
    are stored in a canonical order (label, instance) so two pictures with the
    same content always compare equal.  A value record (see
    ``docs/architecture.md``, "Value records").
    """

    __slots__ = ("width", "height", "icons", "name")

    width: float
    height: float
    icons: Tuple[IconObject, ...]
    name: str

    def __init__(
        self,
        width: float,
        height: float,
        icons: Iterable[IconObject] = (),
        name: str = "",
    ) -> None:
        # Negated, so a NaN extent (every comparison false) fails too.
        if not (width > 0 and height > 0):
            raise PictureError("picture frame must have positive width and height")
        if not isinstance(name, str):
            raise PictureError(f"picture name {name!r} must be a string")
        canonical = tuple(sorted(icons, key=lambda icon: (icon.label, icon.instance)))
        seen = set()
        for icon in canonical:
            identifier = icon.identifier
            if identifier in seen:
                raise PictureError(
                    f"duplicate icon identifier {identifier!r}; use distinct "
                    "instance indices for repeated labels"
                )
            seen.add(identifier)
            mbr = icon.mbr
            if not (
                0.0 <= mbr.x_begin and mbr.x_end <= width
                and 0.0 <= mbr.y_begin and mbr.y_end <= height
            ):
                raise PictureError(
                    f"icon {identifier!r} MBR {mbr} exceeds the {width:g}x{height:g} frame"
                )
        _set_width(self, width)
        _set_height(self, height)
        _set_icons(self, canonical)
        _set_name(self, name)

    def __reduce__(self) -> Tuple[type, Tuple[float, float, Tuple[IconObject, ...], str]]:
        return (type(self), (self.width, self.height, self.icons, self.name))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        width: float,
        height: float,
        objects: Iterable[Tuple[str, Rectangle]],
        name: str = "",
    ) -> "SymbolicPicture":
        """Build a picture from ``(label, mbr)`` pairs.

        Repeated labels are automatically given increasing instance indices in
        the order supplied, mirroring how an icon recogniser would number
        multiple detections of the same class.
        """
        counts: Dict[str, int] = {}
        icons: List[IconObject] = []
        for label, mbr in objects:
            instance = counts.get(label, 0)
            counts[label] = instance + 1
            icons.append(IconObject(label=label, mbr=mbr, instance=instance))
        return cls(width=width, height=height, icons=tuple(icons), name=name)

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    @property
    def frame(self) -> Rectangle:
        """The image frame ``[0, width] x [0, height]``."""
        return Rectangle(0.0, 0.0, self.width, self.height)

    def __len__(self) -> int:
        return len(self.icons)

    def __iter__(self) -> Iterator[IconObject]:
        return iter(self.icons)

    @property
    def labels(self) -> List[str]:
        """Labels of all icons (with repetitions), in canonical order."""
        return [icon.label for icon in self.icons]

    @property
    def identifiers(self) -> List[str]:
        """Unique identifiers of all icons, in canonical order."""
        return [icon.identifier for icon in self.icons]

    def icon(self, identifier: str) -> IconObject:
        """Look up an icon by its identifier (``label`` or ``label#k``)."""
        for icon in self.icons:
            if icon.identifier == identifier:
                return icon
        raise KeyError(f"no icon with identifier {identifier!r}")

    def has_icon(self, identifier: str) -> bool:
        """True when an icon with the given identifier exists."""
        return any(icon.identifier == identifier for icon in self.icons)

    def icons_with_label(self, label: str) -> List[IconObject]:
        """All icons of one class, in instance order."""
        return sorted(
            (icon for icon in self.icons if icon.label == label),
            key=lambda icon: icon.instance,
        )

    # ------------------------------------------------------------------
    # Editing (returns new pictures)
    # ------------------------------------------------------------------
    def add_icon(self, label: str, mbr: Rectangle) -> "SymbolicPicture":
        """Return a new picture with an extra icon of class ``label``."""
        existing = self.icons_with_label(label)
        instance = existing[-1].instance + 1 if existing else 0
        new_icon = IconObject(label=label, mbr=mbr, instance=instance)
        return SymbolicPicture(
            width=self.width,
            height=self.height,
            icons=self.icons + (new_icon,),
            name=self.name,
        )

    def remove_icon(self, identifier: str) -> "SymbolicPicture":
        """Return a new picture without the icon ``identifier``."""
        if not self.has_icon(identifier):
            raise KeyError(f"no icon with identifier {identifier!r}")
        remaining = tuple(icon for icon in self.icons if icon.identifier != identifier)
        return SymbolicPicture(
            width=self.width, height=self.height, icons=remaining, name=self.name
        )

    def subset(self, identifiers: Sequence[str]) -> "SymbolicPicture":
        """Return a picture containing only the named icons.

        Used to build *partial* query pictures (Section 4 of the paper: the
        query targets may be uncertain / incomplete).
        """
        wanted = set(identifiers)
        unknown = wanted - set(self.identifiers)
        if unknown:
            raise KeyError(f"unknown icon identifiers: {sorted(unknown)}")
        kept = tuple(icon for icon in self.icons if icon.identifier in wanted)
        return SymbolicPicture(
            width=self.width, height=self.height, icons=kept, name=self.name
        )

    def renamed(self, name: str) -> "SymbolicPicture":
        """Return the same picture with a different name."""
        return SymbolicPicture(
            width=self.width, height=self.height, icons=self.icons, name=name
        )

    # ------------------------------------------------------------------
    # Geometric transforms (ground truth for the string-level transforms)
    # ------------------------------------------------------------------
    def rotate90(self) -> "SymbolicPicture":
        """Rotate the whole picture 90 degrees clockwise."""
        icons = tuple(
            icon.with_mbr(icon.mbr.rotate90(self.width, self.height)) for icon in self.icons
        )
        return SymbolicPicture(
            width=self.height, height=self.width, icons=icons, name=self.name
        )

    def rotate180(self) -> "SymbolicPicture":
        """Rotate the whole picture 180 degrees."""
        icons = tuple(
            icon.with_mbr(icon.mbr.rotate180(self.width, self.height)) for icon in self.icons
        )
        return SymbolicPicture(
            width=self.width, height=self.height, icons=icons, name=self.name
        )

    def rotate270(self) -> "SymbolicPicture":
        """Rotate the whole picture 270 degrees clockwise."""
        icons = tuple(
            icon.with_mbr(icon.mbr.rotate270(self.width, self.height)) for icon in self.icons
        )
        return SymbolicPicture(
            width=self.height, height=self.width, icons=icons, name=self.name
        )

    def reflect_x(self) -> "SymbolicPicture":
        """Reflect across the x-axis (flip vertically)."""
        icons = tuple(
            icon.with_mbr(icon.mbr.reflect_x_axis(self.height)) for icon in self.icons
        )
        return SymbolicPicture(
            width=self.width, height=self.height, icons=icons, name=self.name
        )

    def reflect_y(self) -> "SymbolicPicture":
        """Reflect across the y-axis (flip horizontally)."""
        icons = tuple(
            icon.with_mbr(icon.mbr.reflect_y_axis(self.width)) for icon in self.icons
        )
        return SymbolicPicture(
            width=self.width, height=self.height, icons=icons, name=self.name
        )

    # ------------------------------------------------------------------
    # Pairwise relations
    # ------------------------------------------------------------------
    def relation_between(self, first: str, second: str) -> SpatialRelation:
        """Exact spatial relation between two icons given by identifier."""
        return spatial_relation(self.icon(first).mbr, self.icon(second).mbr)

    def pairwise_relations(self) -> Dict[Tuple[str, str], SpatialRelation]:
        """Relations for every unordered icon pair (keyed by sorted identifiers)."""
        relations: Dict[Tuple[str, str], SpatialRelation] = {}
        identifiers = self.identifiers
        for i, first in enumerate(identifiers):
            for second in identifiers[i + 1 :]:
                relations[(first, second)] = self.relation_between(first, second)
        return relations

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation used by the storage layer."""
        return {
            "name": self.name,
            "width": self.width,
            "height": self.height,
            "icons": [icon.to_dict() for icon in self.icons],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SymbolicPicture":
        """Inverse of :meth:`to_dict`."""
        icons = tuple([IconObject.from_dict(entry) for entry in payload.get("icons", [])])
        return cls(
            width=float(payload["width"]),
            height=float(payload["height"]),
            icons=icons,
            name=payload.get("name", ""),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "picture"
        return f"{label}({len(self.icons)} icons, {self.width:g}x{self.height:g})"


# The frozen ``__setattr__`` refuses every assignment, so ``__init__`` sets
# each slot through its member descriptor.
_set_width = SymbolicPicture.width.__set__
_set_height = SymbolicPicture.height.__set__
_set_icons = SymbolicPicture.icons.__set__
_set_name = SymbolicPicture.name.__set__


def fig1_picture() -> SymbolicPicture:
    """The three-object example picture of the paper's Figure 1.

    Object ``A`` sits in the upper-left area, ``B`` in the lower-middle, and
    ``C`` overlaps the right part of the frame; the coordinates are chosen so
    that the end boundary of ``A`` coincides with the begin boundary of ``C``
    on the x-axis and the end boundary of ``B`` coincides with the begin
    boundary of ``C`` on the y-axis -- exactly the coincidences the paper uses
    to show where dummy objects are *not* inserted.
    """
    return SymbolicPicture.build(
        width=10.0,
        height=10.0,
        objects=[
            ("A", Rectangle(1.0, 6.0, 4.0, 9.0)),
            ("B", Rectangle(5.0, 1.0, 7.0, 3.0)),
            ("C", Rectangle(4.0, 3.0, 6.0, 5.0)),
        ],
        name="fig1",
    )
