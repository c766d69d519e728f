"""The Algorithm 1 encoder equals its earlier, per-symbol form.

The encoder sorts native ``(coordinate, identifier, 0|1, symbol)`` keys that
carry each object's two interned boundary symbols.  The reference below is
the earlier implementation, kept verbatim apart from its name: it sorted
through a key function and built every boundary symbol as it emitted it.
Coordinates are drawn on a coarse grid, so boundaries often coincide, objects
often have zero extent and boundaries often sit at 0 or at the extent; some
fall outside the frame, and those must fail with the same exception and
message.

``encode_picture`` is checked the same way, together with the picture it
encodes: the reference sorts the icons, checks them one by one against a
frame rectangle, and hands parallel coordinate arrays to the per-symbol
encoder, as the earlier code did.
"""

from typing import List, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.construct import build_axis_string, convert_2d_be_string, encode_picture
from repro.core.errors import EncodingError
from repro.core.symbols import BoundaryKind, Symbol
from repro.geometry.rectangle import Rectangle
from repro.iconic.icon import IconObject
from repro.iconic.picture import PictureError, SymbolicPicture

BoundaryRecord = Tuple[float, str, BoundaryKind]


def _sort_key(record: BoundaryRecord) -> Tuple[float, str, int]:
    coordinate, identifier, kind = record
    return (coordinate, identifier, 0 if kind is BoundaryKind.BEGIN else 1)


def reference_axis_string(
    records: Sequence[BoundaryRecord], extent: float, origin: float = 0.0
) -> AxisBEString:
    if extent <= origin:
        raise EncodingError("the image extent must exceed the origin")
    ordered = sorted(records, key=_sort_key)
    for coordinate, identifier, _ in ordered:
        if coordinate < origin or coordinate > extent:
            raise EncodingError(
                f"boundary of object {identifier!r} at {coordinate!r} lies outside "
                f"[{origin!r}, {extent!r}]"
            )
    symbols: List[Symbol] = []
    if not ordered:
        return AxisBEString((Symbol.dummy(),))
    if ordered[0][0] != origin:
        symbols.append(Symbol.dummy())
    for index, (coordinate, identifier, kind) in enumerate(ordered):
        symbols.append(Symbol.boundary(identifier, kind))
        if index + 1 < len(ordered):
            next_coordinate = ordered[index + 1][0]
            if coordinate != next_coordinate:
                symbols.append(Symbol.dummy())
        elif coordinate != extent:
            symbols.append(Symbol.dummy())
    return AxisBEString(tuple(symbols))


def reference_tokens(axis: AxisBEString) -> str:
    """The earlier per-symbol text rendering."""
    return " ".join(
        "E" if symbol.identifier is None else f"{symbol.identifier}.{symbol.kind.value}"
        for symbol in axis.symbols
    )


def outcome(build, *arguments):
    """What a call returns, or the type and message of what it raises."""
    try:
        return build(*arguments)
    except (EncodingError, PictureError) as error:
        return (type(error), str(error))


#: Grid coordinates: -2 and -1 fall below the frame, 11 and 12 beyond its
#: extent of 10; integers and floats both occur.
coordinates = st.one_of(
    st.integers(min_value=-2, max_value=12),
    st.integers(min_value=-2, max_value=12).map(float),
    st.sampled_from([2.5, 7.25]),
)
identifiers = st.sampled_from(["A", "B", "C", "car#1", "car#2", "tree"])
kinds = st.sampled_from(list(BoundaryKind))
records = st.lists(st.tuples(coordinates, identifiers, kinds), max_size=10)


@settings(max_examples=300, deadline=None)
@given(records, st.sampled_from([10, 10.0, 12.5, 0, -1.0]), st.sampled_from([0.0, 0, -2.0, 1.0]))
def test_axis_string_equals_the_reference(axis_records, extent, origin):
    expected = outcome(reference_axis_string, axis_records, extent, origin)
    produced = outcome(build_axis_string, axis_records, extent, origin)
    assert produced == expected
    if isinstance(produced, AxisBEString):
        assert produced.to_text() == reference_tokens(expected)
        assert [symbol.to_text() for symbol in produced] == reference_tokens(
            expected
        ).split()


@st.composite
def pictures(draw):
    """Parallel arrays of unique objects with begin <= end on both axes."""
    names = draw(st.lists(identifiers, max_size=6, unique=True))
    arrays = ([], [], [], [])
    for _ in names:
        for begins, ends in ((arrays[0], arrays[1]), (arrays[2], arrays[3])):
            begin = draw(st.integers(min_value=-1, max_value=11))
            begins.append(begin)
            ends.append(begin + draw(st.integers(min_value=0, max_value=4)))
    extents = st.sampled_from([10, 10.0, 11.0, 0])
    return names, arrays, draw(extents), draw(extents)


@settings(max_examples=300, deadline=None)
@given(pictures())
def test_convert_equals_the_reference(picture):
    names, (x_begin, x_end, y_begin, y_end), x_max, y_max = picture

    def reference():
        axes = []
        for begins, ends, extent in ((x_begin, x_end, x_max), (y_begin, y_end, y_max)):
            axis_records = [
                record
                for name, begin, end in zip(names, begins, ends)
                for record in (
                    (float(begin), name, BoundaryKind.BEGIN),
                    (float(end), name, BoundaryKind.END),
                )
            ]
            axes.append(reference_axis_string(axis_records, float(extent)))
        return BEString2D(axes[0], axes[1], "scene")

    produced = outcome(
        convert_2d_be_string,
        len(names), names, x_begin, x_end, y_begin, y_end, x_max, y_max, "scene",
    )
    expected = outcome(reference)
    assert produced == expected
    if isinstance(produced, BEString2D):
        assert produced.to_dict() == {
            "name": "scene",
            "x": reference_tokens(expected.x),
            "y": reference_tokens(expected.y),
        }


def reference_canonical_icons(icons, width, height):
    """The earlier picture check: sort, then test each icon against a frame."""
    if width <= 0 or height <= 0:
        raise PictureError("picture frame must have positive width and height")
    canonical = tuple(sorted(icons, key=lambda icon: (icon.label, icon.instance)))
    frame = Rectangle(0.0, 0.0, width, height)
    seen = set()
    for icon in canonical:
        if icon.identifier in seen:
            raise PictureError(
                f"duplicate icon identifier {icon.identifier!r}; use distinct "
                "instance indices for repeated labels"
            )
        seen.add(icon.identifier)
        if not frame.contains(icon.mbr):
            raise PictureError(
                f"icon {icon.identifier!r} MBR {icon.mbr} exceeds the "
                f"{width:g}x{height:g} frame"
            )
    return canonical


def reference_encode_picture(icons, width, height, name):
    """The earlier ``encode_picture``: parallel arrays into the reference encoder."""
    canonical = reference_canonical_icons(icons, width, height)
    axes = []
    for extent, begin_of, end_of in (
        (width, lambda mbr: mbr.x_begin, lambda mbr: mbr.x_end),
        (height, lambda mbr: mbr.y_begin, lambda mbr: mbr.y_end),
    ):
        axis_records = [
            record
            for icon in canonical
            for record in (
                (float(begin_of(icon.mbr)), icon.identifier, BoundaryKind.BEGIN),
                (float(end_of(icon.mbr)), icon.identifier, BoundaryKind.END),
            )
        ]
        axes.append(reference_axis_string(axis_records, float(extent)))
    return canonical, BEString2D(axes[0], axes[1], name)


#: Labels whose identifiers can collide: ``car`` instance 1 and the label
#: ``car#1`` instance 0 both name ``car#1``.
icon_labels = st.sampled_from(["A", "B", "C", "D", "car", "car#1", "tree", "tree#2"])


@st.composite
def spans(draw):
    """One axis's ``(begin, end)``: on the grid, now and then beyond the frame."""
    begin = draw(st.integers(min_value=0, max_value=7))
    end = begin + draw(st.integers(min_value=0, max_value=3))
    if draw(st.integers(min_value=0, max_value=15)) == 0:
        return draw(st.sampled_from([(-1, begin), (end, 13)]))
    return begin, end


@st.composite
def extents(draw):
    """A frame extent, integer or float, now and then not positive."""
    if draw(st.integers(min_value=0, max_value=15)) == 0:
        return draw(st.sampled_from([0, -1.0]))
    return draw(st.sampled_from([10, 10.0, 11.0, 12.5]))


@st.composite
def icon_lists(draw):
    """Icons in any order, some with colliding identifiers."""
    icons = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        (x_begin, x_end), (y_begin, y_end) = draw(spans()), draw(spans())
        icons.append(
            IconObject(
                label=draw(icon_labels),
                mbr=Rectangle(x_begin, y_begin, x_end, y_end),
                instance=draw(st.sampled_from([0, 0, 1, 2])),
            )
        )
    return icons


@settings(max_examples=400, deadline=None)
@given(icon_lists(), extents(), extents())
def test_encode_picture_equals_the_reference(icons, width, height):
    def produce():
        picture = SymbolicPicture(width=width, height=height, icons=tuple(icons), name="scene")
        return picture.icons, encode_picture(picture)

    produced = outcome(produce)
    expected = outcome(reference_encode_picture, icons, width, height, "scene")
    assert produced == expected
    if isinstance(produced[1], BEString2D):
        assert produced[1].to_dict() == {
            "name": "scene",
            "x": reference_tokens(expected[1].x),
            "y": reference_tokens(expected[1].y),
        }
