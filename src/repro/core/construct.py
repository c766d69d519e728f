"""Algorithm 1: ``Convert-2D-Be-String``.

The paper's Algorithm 1 takes, for each of the ``n`` icon objects, its
identifier and the four MBR boundary coordinates, plus the image extents
``X_max`` / ``Y_max``, and produces the two axis BE-strings.  The procedure is
sort-dominated: boundaries are sorted by ``(coordinate, identifier)`` per axis
and then emitted left to right, inserting the dummy object ``E``

* before the first boundary if it does not touch coordinate 0,
* between two consecutive boundaries whose coordinates differ, and
* after the last boundary if it does not touch the image extent.

Two entry points are provided: :func:`convert_2d_be_string`, a faithful port
of the algorithm operating on parallel coordinate arrays exactly as in the
paper, and :func:`encode_picture`, the idiomatic API working on
:class:`~repro.iconic.picture.SymbolicPicture`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.errors import EncodingError
from repro.core.symbols import BoundaryKind, Symbol
from repro.iconic.picture import SymbolicPicture

#: One sortable boundary record: ``(coordinate, identifier, kind)``.  The sort
#: key matches the paper's "combine MBR coordinate and object identifier as a
#: key" with the begin/end kind as a final tiebreaker so a degenerate object
#: (zero extent) still begins before it ends.
BoundaryRecord = Tuple[float, str, BoundaryKind]

#: The sort key of one boundary: ``(coordinate, identifier, 0 for begin | 1
#: for end)``, ordered by Python's native tuple comparison.
BoundaryKey = Tuple[float, str, int]


def _emit_axis(
    keys: List[BoundaryKey],
    extent: float,
    origin: float,
    symbols: Dict[str, Tuple[Symbol, Symbol]],
) -> AxisBEString:
    """Sort ``keys`` in place and emit their axis BE-string.

    This is the body of Algorithm 1 for a single axis (lines 21-32 / 34-45 of
    the paper): sort, then walk the boundary sequence inserting dummies at the
    image edges and between distinct coordinates.  ``symbols`` caches each
    object's interned ``(begin, end)`` symbols, so one object is looked up
    once however many axes share the table.
    """
    if extent <= origin:
        raise EncodingError("the image extent must exceed the origin")
    keys.sort()
    for coordinate, identifier, _ in keys:
        if coordinate < origin or coordinate > extent:
            raise EncodingError(
                f"boundary of object {identifier!r} at {coordinate!r} lies outside "
                f"[{origin!r}, {extent!r}]"
            )
    dummy = Symbol.dummy()
    if not keys:
        return AxisBEString((dummy,))
    previous = keys[0][0]
    emitted: List[Symbol] = [] if previous == origin else [dummy]
    for coordinate, identifier, kind in keys:
        pair = symbols.get(identifier)
        if pair is None:
            pair = symbols[identifier] = (
                Symbol.boundary(identifier, BoundaryKind.BEGIN),
                Symbol.boundary(identifier, BoundaryKind.END),
            )
        if coordinate != previous:
            emitted.append(dummy)
            previous = coordinate
        emitted.append(pair[kind])
    if previous != extent:
        emitted.append(dummy)
    return AxisBEString(tuple(emitted))


def build_axis_string(
    records: Sequence[BoundaryRecord], extent: float, origin: float = 0.0
) -> AxisBEString:
    """Emit one axis BE-string from sorted-or-unsorted boundary records."""
    keys = [
        (coordinate, identifier, 0 if kind is BoundaryKind.BEGIN else 1)
        for coordinate, identifier, kind in records
    ]
    return _emit_axis(keys, extent, origin, {})


def convert_2d_be_string(
    n: int,
    identifiers: Sequence[str],
    x_begin: Sequence[float],
    x_end: Sequence[float],
    y_begin: Sequence[float],
    y_end: Sequence[float],
    x_max: float,
    y_max: float,
    name: str = "",
) -> BEString2D:
    """Faithful port of the paper's ``Convert-2D-Be-String`` signature.

    Parameters mirror the pseudo-code: ``n`` objects, the identifier array
    ``C`` and the four parallel boundary-coordinate arrays, plus the maximum
    coordinates of the image.  Returns the 2D BE-string ``(X_be, Y_be)``.
    """
    arrays = (identifiers, x_begin, x_end, y_begin, y_end)
    if any(len(array) != n for array in arrays):
        raise EncodingError(
            "identifier and coordinate arrays must all have exactly n entries"
        )
    if len(set(identifiers)) != n:
        raise EncodingError("object identifiers must be unique within an image")
    for index in range(n):
        if x_begin[index] > x_end[index] or y_begin[index] > y_end[index]:
            raise EncodingError(
                f"object {identifiers[index]!r} has begin boundaries beyond its "
                "end boundaries"
            )

    x_keys: List[BoundaryKey] = []
    y_keys: List[BoundaryKey] = []
    for identifier, xb, xe, yb, ye in zip(identifiers, x_begin, x_end, y_begin, y_end):
        x_keys.append((float(xb), identifier, 0))
        x_keys.append((float(xe), identifier, 1))
        y_keys.append((float(yb), identifier, 0))
        y_keys.append((float(ye), identifier, 1))

    symbols: Dict[str, Tuple[Symbol, Symbol]] = {}
    return BEString2D(
        x=_emit_axis(x_keys, float(x_max), 0.0, symbols),
        y=_emit_axis(y_keys, float(y_max), 0.0, symbols),
        name=name,
    )


def encode_picture(picture: SymbolicPicture) -> BEString2D:
    """Encode a :class:`~repro.iconic.picture.SymbolicPicture` as a 2D BE-string."""
    identifiers = [icon.identifier for icon in picture.icons]
    return convert_2d_be_string(
        n=len(picture.icons),
        identifiers=identifiers,
        x_begin=[icon.mbr.x_begin for icon in picture.icons],
        x_end=[icon.mbr.x_end for icon in picture.icons],
        y_begin=[icon.mbr.y_begin for icon in picture.icons],
        y_end=[icon.mbr.y_end for icon in picture.icons],
        x_max=picture.width,
        y_max=picture.height,
        name=picture.name,
    )


def storage_symbol_bounds(object_count: int) -> Tuple[int, int]:
    """The paper's per-axis storage bounds for ``n`` objects (Section 3.1).

    Worst case (all projections distinct, free space at both image edges):
    ``2n`` boundary symbols plus ``2n + 1`` dummies = ``4n + 1`` symbols.
    Best case (every begin boundary at the image origin and every end boundary
    at the image extent, so only one pair of adjacent boundaries differs):
    ``2n`` boundary symbols plus a single dummy = ``2n + 1`` symbols --
    exactly the bounds the paper quotes.
    """
    if object_count < 0:
        raise ValueError("object_count must be non-negative")
    if object_count == 0:
        return (1, 1)
    return (2 * object_count + 1, 4 * object_count + 1)
