"""Icon objects: one recognised object inside a symbolic picture."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

from repro.geometry.rectangle import Rectangle


@dataclass(frozen=True, order=True)
class IconObject:
    """A recognised icon: a class label, an instance index and an MBR.

    ``label`` is the icon class (``"car"``); ``instance`` distinguishes
    multiple icons of the same class within one picture.  The pair
    ``(label, instance)`` is the object *identifier* the paper's Algorithm 1
    sorts on together with the boundary coordinate.

    A label is a non-empty string without whitespace: the BE-string text form
    and the ``where`` parser both split on whitespace, so a label holding any
    could be neither stored nor queried.
    """

    label: str
    mbr: Rectangle
    instance: int = 0

    def __post_init__(self) -> None:
        label = self.label
        if not label or not isinstance(label, str):
            raise ValueError("icon label must be a non-empty string")
        if label.split() != [label]:
            raise ValueError(f"icon label {label!r} must not contain whitespace")
        if self.instance < 0:
            raise ValueError("icon instance index must be non-negative")

    @property
    def identifier(self) -> str:
        """Unique identifier within a picture: ``label`` or ``label#k``."""
        if self.instance == 0:
            return self.label
        return f"{self.label}#{self.instance}"

    @property
    def area(self) -> float:
        """Area of the icon's MBR."""
        return self.mbr.area

    def with_mbr(self, mbr: Rectangle) -> "IconObject":
        """Return a copy of this icon with a different MBR."""
        return replace(self, mbr=mbr)

    def with_instance(self, instance: int) -> "IconObject":
        """Return a copy of this icon with a different instance index."""
        return replace(self, instance=instance)

    def translate(self, dx: float, dy: float) -> "IconObject":
        """Return a copy translated by ``(dx, dy)``."""
        return self.with_mbr(self.mbr.translate(dx, dy))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation used by the storage layer."""
        return {
            "label": self.label,
            "instance": self.instance,
            "mbr": list(self.mbr.as_tuple()),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IconObject":
        """Inverse of :meth:`to_dict`."""
        x_begin, y_begin, x_end, y_end = payload["mbr"]
        return cls(
            payload["label"],
            Rectangle(x_begin, y_begin, x_end, y_end),
            int(payload.get("instance", 0)),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.identifier}@{self.mbr}"
