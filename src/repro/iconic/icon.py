"""Icon objects: one recognised object inside a symbolic picture."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from repro.geometry.rectangle import Rectangle

#: Most entries an interning table keeps: the shared icon labels here, the
#: boundary symbols of :meth:`repro.core.symbols.Symbol.boundaries` and the
#: label CRCs of :mod:`repro.index.shortlist`.  A full table is emptied (like
#: the ``re`` module's pattern cache), so labels a client makes up cannot
#: grow it without limit.
BOUNDARY_INTERN_LIMIT = 65536
#: Longest label or identifier a table keeps.  A longer one is used as
#: given, so a table holds at most ``BOUNDARY_INTERN_LIMIT`` times this many
#: characters however long the labels a client sends are.
BOUNDARY_INTERN_MAX_LENGTH = 128


@dataclass(frozen=True, order=True, init=False)
class IconObject:
    """A recognised icon: a class label, an instance index and an MBR.

    ``label`` is the icon class (``"car"``); ``instance`` distinguishes
    multiple icons of the same class within one picture.  The pair
    ``(label, instance)`` is the object *identifier* the paper's Algorithm 1
    sorts on together with the boundary coordinate.

    A label is a non-empty string without whitespace: the BE-string text form
    and the ``where`` parser both split on whitespace, so a label holding any
    could be neither stored nor queried.  Icons with equal labels share one
    string.  An instance is a non-negative ``int`` (not a ``bool``): the
    identifier spells it, and storage reads it back as an integer.

    A value record (see ``docs/architecture.md``, "Value records").
    """

    __slots__ = ("label", "mbr", "instance")

    label: str
    mbr: Rectangle
    instance: int

    def __init__(self, label: str, mbr: Rectangle, instance: int = 0) -> None:
        # The table holds only labels that passed the checks below.
        shared = _LABELS.get(label) if label.__class__ is str else None
        if shared is None:
            shared = _checked_label(label)
        if isinstance(instance, bool) or not isinstance(instance, int):
            raise ValueError(f"icon instance index {instance!r} must be an integer")
        if instance < 0:
            raise ValueError("icon instance index must be non-negative")
        _set_label(self, shared)
        _set_mbr(self, mbr)
        _set_instance(self, instance)

    def __reduce__(self) -> Tuple[type, Tuple[str, Rectangle, int]]:
        return (type(self), (self.label, self.mbr, self.instance))

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
            payload.get("instance", 0),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.identifier}@{self.mbr}"


#: Every plain-``str`` label an icon has accepted, mapped to itself, so icons
#: share one string per label instead of holding each decoded copy.  Bounded
#: by ``BOUNDARY_INTERN_LIMIT`` labels of at most
#: ``BOUNDARY_INTERN_MAX_LENGTH`` characters, emptied when full.
_LABELS: Dict[str, str] = {}


def _checked_label(label: Any) -> str:
    """Check a label not in :data:`_LABELS` and enter it there when it fits.

    Raises:
        ValueError: if ``label`` is not a non-empty string or holds whitespace.
    """
    if not label or not isinstance(label, str):
        raise ValueError("icon label must be a non-empty string")
    if label.split() != [label]:
        raise ValueError(f"icon label {label!r} must not contain whitespace")
    if label.__class__ is str and len(label) <= BOUNDARY_INTERN_MAX_LENGTH:
        if len(_LABELS) >= BOUNDARY_INTERN_LIMIT:
            _LABELS.clear()
        _LABELS[label] = label
    return label


# The frozen ``__setattr__`` refuses every assignment, so ``__init__`` sets
# each slot through its member descriptor.
_set_label = IconObject.label.__set__
_set_mbr = IconObject.mbr.__set__
_set_instance = IconObject.instance.__set__
