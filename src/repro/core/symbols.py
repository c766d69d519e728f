"""Symbols of the 2D BE-string alphabet.

A 2D BE-string is a sequence over exactly two kinds of symbol:

* **boundary symbols** -- the begin (``b``) or end (``e``) boundary of one
  icon object's MBR projection, written ``A.b`` / ``A.e`` in text form, and
* the **dummy object** ``E`` -- "not a real object in the original image; it
  can be specified as any size of space" (Section 3.1).  A dummy between two
  boundary symbols states that their projections are *distinct*; its absence
  states they coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.core.errors import EncodingError
from repro.iconic.icon import BOUNDARY_INTERN_LIMIT, BOUNDARY_INTERN_MAX_LENGTH

#: Text form of the dummy object, as in the paper.
DUMMY_TEXT = "E"


class BoundaryKind(Enum):
    """Whether a boundary symbol is the begin or the end of an MBR projection."""

    BEGIN = "b"
    END = "e"

    @property
    def opposite(self) -> "BoundaryKind":
        """The other boundary kind (begin <-> end)."""
        return BoundaryKind.END if self is BoundaryKind.BEGIN else BoundaryKind.BEGIN

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Symbol:
    """One symbol of a 2D BE-string.

    ``identifier`` and ``kind`` are both ``None`` for the dummy object and both
    set for a boundary symbol.  Symbols are immutable and hashable so they can
    be compared directly inside the LCS dynamic program and used as index keys.
    """

    identifier: Optional[str] = None
    kind: Optional[BoundaryKind] = None
    #: The token :meth:`to_text` returns, rendered once on construction.
    text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if (self.identifier is None) != (self.kind is None):
            raise EncodingError(
                "a symbol is either a dummy (no identifier, no kind) or a "
                "boundary symbol (both identifier and kind)"
            )
        if self.identifier is None:
            text = DUMMY_TEXT
        elif not self.identifier:
            raise EncodingError("boundary symbols need a non-empty identifier")
        else:
            assert self.kind is not None
            text = f"{self.identifier}.{self.kind.value}"
        object.__setattr__(self, "text", text)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def dummy(cls) -> "Symbol":
        """The dummy object ``E``."""
        return _DUMMY

    @classmethod
    def boundaries(cls, identifier: str) -> Tuple["Symbol", "Symbol"]:
        """The shared ``(begin, end)`` boundary symbols of ``identifier``.

        Every stored BE-string spells its objects' boundaries with the same
        few symbols, so one identifier returns one interned pair instead of
        fresh objects per string.  Equality stays value-based: a symbol built
        any other way still compares and hashes equal to the shared one.

        Raises:
            EncodingError: if ``identifier`` is empty.
        """
        pair = _BOUNDARIES.get(identifier)
        if pair is None:
            pair = (
                Symbol(identifier=identifier, kind=BoundaryKind.BEGIN),
                Symbol(identifier=identifier, kind=BoundaryKind.END),
            )
            if len(identifier) <= BOUNDARY_INTERN_MAX_LENGTH:
                if len(_BOUNDARIES) * 2 >= BOUNDARY_INTERN_LIMIT:
                    _BOUNDARIES.clear()
                _BOUNDARIES[identifier] = pair
        return pair

    @classmethod
    def boundary(cls, identifier: str, kind: BoundaryKind) -> "Symbol":
        """The shared boundary symbol of ``identifier`` and ``kind``.

        Raises:
            EncodingError: if ``identifier`` is empty or ``kind`` is missing.
        """
        if kind is BoundaryKind.BEGIN:
            return cls.boundaries(identifier)[0]
        if kind is BoundaryKind.END:
            return cls.boundaries(identifier)[1]
        return Symbol(identifier=identifier, kind=kind)  # raises: not a kind

    @classmethod
    def begin(cls, identifier: str) -> "Symbol":
        """The begin boundary of ``identifier``."""
        return cls.boundaries(identifier)[0]

    @classmethod
    def end(cls, identifier: str) -> "Symbol":
        """The end boundary of ``identifier``."""
        return cls.boundaries(identifier)[1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_dummy(self) -> bool:
        """True for the dummy object ``E``."""
        return self.identifier is None

    @property
    def is_boundary(self) -> bool:
        """True for a begin/end boundary symbol."""
        return self.identifier is not None

    @property
    def is_begin(self) -> bool:
        """True for a begin boundary symbol."""
        return self.kind is BoundaryKind.BEGIN

    @property
    def is_end(self) -> bool:
        """True for an end boundary symbol."""
        return self.kind is BoundaryKind.END

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def swapped(self) -> "Symbol":
        """Begin becomes end and vice versa; the dummy is unchanged.

        This is the symbol-level operation behind the paper's "reverse the
        string" treatment of rotations and reflections: mirroring an axis maps
        each begin boundary onto the corresponding end boundary.
        """
        if self.is_dummy:
            return self
        assert self.identifier is not None and self.kind is not None
        return Symbol.boundary(self.identifier, self.kind.opposite)

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """``E`` for the dummy, ``<identifier>.<b|e>`` for boundaries."""
        return self.text

    @classmethod
    def from_text(cls, token: str) -> "Symbol":
        """Parse a single symbol token produced by :meth:`to_text`."""
        if token == DUMMY_TEXT:
            return cls.dummy()
        if "." not in token:
            raise EncodingError(f"malformed boundary symbol token {token!r}")
        identifier, _, kind_text = token.rpartition(".")
        try:
            kind = BoundaryKind(kind_text)
        except ValueError:
            raise EncodingError(f"unknown boundary kind in token {token!r}") from None
        return cls.boundary(identifier, kind)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()


_DUMMY = Symbol()
#: The shared ``(begin, end)`` pair of each identifier :meth:`Symbol.boundaries`
#: has seen: at most ``BOUNDARY_INTERN_LIMIT`` symbols, two per identifier of
#: at most ``BOUNDARY_INTERN_MAX_LENGTH`` characters (a longer one gets a
#: fresh pair), emptied when full.  The bounds are the icon-label table's.
_BOUNDARIES: Dict[str, Tuple[Symbol, Symbol]] = {}
