"""BE-strings: the per-axis strings and the 2-D pair.

Section 3.1 of the paper defines the 2D BE-string of an image as the pair

    (u, v) = (d0 x1 d1 x2 d2 ... d(n-1) xn dn,  d0 y1 d1 y2 d2 ... d(n-1) yn dn)

where each ``x_i`` / ``y_i`` is a begin or end boundary symbol of a real icon
object and each ``d_i`` is either the dummy object ``E`` (the two neighbouring
boundary projections are distinct, or there is free space at the image edge)
or the empty string (the projections coincide).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.core.errors import EncodingError
from repro.core.symbols import BoundaryKind, Symbol


@dataclass(frozen=True, init=False)
class AxisBEString:
    """The BE-string of one axis: an immutable sequence of symbols.

    A value record (see ``docs/architecture.md``, "Value records").
    """

    __slots__ = ("symbols",)

    symbols: Tuple[Symbol, ...]

    def __init__(self, symbols: Iterable[Symbol] = ()) -> None:
        _set_symbols(self, tuple(symbols))

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[Symbol, ...]]]:
        return (type(self), (self.symbols,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_symbols(cls, symbols: Iterable[Symbol]) -> "AxisBEString":
        """Build from any iterable of :class:`~repro.core.symbols.Symbol`."""
        return cls(tuple(symbols))

    @classmethod
    def from_text(cls, text: str) -> "AxisBEString":
        """Parse the whitespace-separated token form produced by :meth:`to_text`."""
        tokens = text.split()
        return cls(tuple(Symbol.from_text(token) for token in tokens))

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, index: int) -> Symbol:
        return self.symbols[index]

    # ------------------------------------------------------------------
    # Counts and queries
    # ------------------------------------------------------------------
    @property
    def boundary_symbols(self) -> Tuple[Symbol, ...]:
        """Only the begin/end boundary symbols, in order."""
        return tuple(symbol for symbol in self.symbols if symbol.is_boundary)

    @property
    def boundary_count(self) -> int:
        """Number of boundary symbols (``2 * number of objects`` when valid)."""
        return sum(1 for symbol in self.symbols if symbol.is_boundary)

    @property
    def dummy_count(self) -> int:
        """Number of dummy objects ``E`` in the string."""
        return sum(1 for symbol in self.symbols if symbol.is_dummy)

    @property
    def object_identifiers(self) -> Set[str]:
        """Identifiers of all objects mentioned in the string."""
        return {symbol.identifier for symbol in self.symbols if symbol.identifier is not None}

    def count_objects(self) -> int:
        """Number of distinct objects represented."""
        return len(self.object_identifiers)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of a well-formed axis BE-string.

        * no two consecutive dummy objects (one dummy already means
          "distinct"; a second carries no information),
        * every object contributes exactly one begin and one end boundary,
        * the begin boundary of an object precedes its end boundary.

        Raises :class:`~repro.core.errors.EncodingError` on violation.
        """
        previous_was_dummy = False
        begin_seen: Dict[str, int] = {}
        end_seen: Dict[str, int] = {}
        for position, symbol in enumerate(self.symbols):
            if symbol.is_dummy:
                if previous_was_dummy:
                    raise EncodingError(
                        f"two consecutive dummy objects at position {position}"
                    )
                previous_was_dummy = True
                continue
            previous_was_dummy = False
            assert symbol.identifier is not None
            if symbol.is_begin:
                if symbol.identifier in begin_seen:
                    raise EncodingError(
                        f"object {symbol.identifier!r} has more than one begin boundary"
                    )
                begin_seen[symbol.identifier] = position
            else:
                if symbol.identifier in end_seen:
                    raise EncodingError(
                        f"object {symbol.identifier!r} has more than one end boundary"
                    )
                end_seen[symbol.identifier] = position
        if set(begin_seen) != set(end_seen):
            unbalanced = set(begin_seen) ^ set(end_seen)
            raise EncodingError(
                f"objects with unbalanced boundaries: {sorted(unbalanced)}"
            )
        for identifier, begin_position in begin_seen.items():
            if begin_position > end_seen[identifier]:
                raise EncodingError(
                    f"object {identifier!r} ends before it begins on this axis"
                )

    @property
    def is_valid(self) -> bool:
        """True when :meth:`validate` passes."""
        try:
            self.validate()
        except EncodingError:
            return False
        return True

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def canonicalized(self) -> "AxisBEString":
        """Normalise the order of boundary symbols that share a projection.

        Boundary symbols between two dummy objects (or string ends) project to
        the same coordinate, so their relative order is a representation
        choice; ``Convert-2D-Be-String`` orders them by ``(identifier, begin
        before end)``.  Re-applying that order makes strings produced by other
        means (reversal, splicing) byte-for-byte comparable with freshly
        encoded ones.
        """
        canonical: List[Symbol] = []
        run: List[Symbol] = []

        def flush() -> None:
            run.sort(key=lambda symbol: (symbol.identifier or "", symbol.kind is BoundaryKind.END))
            canonical.extend(run)
            run.clear()

        for symbol in self.symbols:
            if symbol.is_dummy:
                flush()
                canonical.append(symbol)
            else:
                run.append(symbol)
        flush()
        return AxisBEString(tuple(canonical))

    def reversed_swapped(self) -> "AxisBEString":
        """Reverse the symbol order and swap begin/end boundaries.

        Mirroring an axis of the image maps coordinate ``c`` to
        ``extent - c``: the projection order reverses and every begin boundary
        becomes the corresponding end boundary.  This single operation is all
        the paper needs to retrieve reflections and rotations (Section 4).
        The result is canonicalised so that it is symbol-for-symbol identical
        to encoding the mirrored picture directly.
        """
        reversed_symbols = tuple(symbol.swapped() for symbol in reversed(self.symbols))
        return AxisBEString(reversed_symbols).canonicalized()

    def without_dummies(self) -> "AxisBEString":
        """The subsequence of boundary symbols only."""
        return AxisBEString(self.boundary_symbols)

    def restricted_to(self, identifiers: Iterable[str]) -> "AxisBEString":
        """Project the string onto a subset of objects.

        Boundary symbols of other objects are dropped; runs of dummies that
        become adjacent are collapsed to a single dummy, and leading/trailing
        dummies are preserved (free space remains free space).
        """
        wanted = set(identifiers)
        kept: List[Symbol] = []
        for symbol in self.symbols:
            if symbol.is_boundary and symbol.identifier not in wanted:
                continue
            if symbol.is_dummy and kept and kept[-1].is_dummy:
                continue
            kept.append(symbol)
        return AxisBEString(tuple(kept))

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Whitespace-separated token form, e.g. ``"E A.b E A.e C.b E"``."""
        return " ".join([symbol.text for symbol in self.symbols])

    def to_compact_text(self) -> str:
        """Compact form close to the paper's notation, e.g. ``"EAbEAeCbE"``.

        Only unambiguous for single-character identifiers; intended for
        display and the worked Figure 1 example.
        """
        parts: List[str] = []
        for symbol in self.symbols:
            if symbol.is_dummy:
                parts.append("E")
            else:
                assert symbol.kind is not None
                parts.append(f"{symbol.identifier}{symbol.kind.value}")
        return "".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()


@dataclass(frozen=True, init=False)
class BEString2D:
    """The pair of axis BE-strings representing one symbolic image.

    A value record (see ``docs/architecture.md``, "Value records").
    """

    __slots__ = ("x", "y", "name")

    x: AxisBEString
    y: AxisBEString
    name: str

    def __init__(self, x: AxisBEString, y: AxisBEString, name: str = "") -> None:
        _set_x(self, x)
        _set_y(self, y)
        _set_name(self, name)

    def __reduce__(self) -> Tuple[type, Tuple[AxisBEString, AxisBEString, str]]:
        return (type(self), (self.x, self.y, self.name))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, x_text: str, y_text: str, name: str = "") -> "BEString2D":
        """Parse the two axis strings from their token text form."""
        return cls(AxisBEString.from_text(x_text), AxisBEString.from_text(y_text), name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def object_identifiers(self) -> Set[str]:
        """Identifiers present on both axes."""
        return self.x.object_identifiers | self.y.object_identifiers

    def count_objects(self) -> int:
        """Number of distinct objects represented."""
        return len(self.object_identifiers)

    @property
    def total_symbols(self) -> int:
        """Total storage in symbols across both axes."""
        return len(self.x) + len(self.y)

    @property
    def symbol_multiset(self) -> Counter:
        """Multiset of boundary symbols on both axes (used by the index filter)."""
        counter: Counter = Counter()
        for axis in (self.x, self.y):
            for symbol in axis.symbols:
                if symbol.is_boundary:
                    counter[symbol] += 1
        return counter

    def validate(self) -> None:
        """Validate both axes and their mutual consistency."""
        self.x.validate()
        self.y.validate()
        if self.x.object_identifiers != self.y.object_identifiers:
            missing = self.x.object_identifiers ^ self.y.object_identifiers
            raise EncodingError(
                f"objects present on only one axis: {sorted(missing)}"
            )

    @property
    def is_valid(self) -> bool:
        """True when :meth:`validate` passes."""
        try:
            self.validate()
        except EncodingError:
            return False
        return True

    # ------------------------------------------------------------------
    # Derived strings
    # ------------------------------------------------------------------
    def restricted_to(self, identifiers: Iterable[str]) -> "BEString2D":
        """Project both axes onto a subset of objects."""
        wanted = list(identifiers)
        return BEString2D(
            self.x.restricted_to(wanted), self.y.restricted_to(wanted), self.name
        )

    def renamed(self, name: str) -> "BEString2D":
        """Return the same strings under a different name."""
        return BEString2D(self.x, self.y, name)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation used by the storage layer."""
        return {"name": self.name, "x": self.x.to_text(), "y": self.y.to_text()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BEString2D":
        """Inverse of :meth:`to_dict`."""
        return cls.from_text(payload["x"], payload["y"], payload.get("name", ""))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x.to_compact_text()}, {self.y.to_compact_text()})"


# The frozen ``__setattr__`` refuses every assignment, so each ``__init__``
# sets its slots through their member descriptors.
_set_symbols = AxisBEString.symbols.__set__
_set_x = BEString2D.x.__set__
_set_y = BEString2D.y.__set__
_set_name = BEString2D.name.__set__
