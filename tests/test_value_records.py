"""The value-record contract of the seven slotted types a load builds.

``Rectangle``, ``IconObject``, ``SymbolicPicture``, ``AxisBEString``,
``BEString2D``, ``AxisSignature`` and ``ImageSignature`` are frozen
dataclasses with ``__slots__``, a checked ``__init__`` and a
``__reduce__`` that rebuilds each value through that constructor.  These tests pin what callers rely on:
pickling at every protocol (on every supported Python, 3.9 included),
copies, equality and hashing, ordering, immutability, the absence of an
instance ``__dict__`` and the ``dataclasses`` helpers; and that a pickle
is checked again when it is loaded.
"""

import copy
import dataclasses
import math
import pickle

import pytest

from repro.core.bestring import AxisBEString, BEString2D
from repro.core.construct import encode_picture
from repro.datasets.scenes import office_scene
from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from repro.iconic.icon import IconObject
from repro.iconic.picture import PictureError, SymbolicPicture
from repro.index.shortlist import AxisSignature, ImageSignature


def _values():
    """``name -> (value, an equal value built another way)`` for each type."""
    picture = office_scene(1)
    bestring = encode_picture(picture)
    reparsed = BEString2D.from_dict(bestring.to_dict())
    icon = picture.icons[2]
    return {
        "Rectangle": (
            Rectangle(1.0, 2.0, 3.0, 4.0),
            Rectangle.from_corners(Point(3.0, 4.0), Point(1.0, 2.0)),
        ),
        "IconObject": (icon, IconObject.from_dict(icon.to_dict())),
        "SymbolicPicture": (picture, SymbolicPicture.from_dict(picture.to_dict())),
        "AxisBEString": (bestring.x, AxisBEString.from_text(bestring.x.to_text())),
        "BEString2D": (bestring, reparsed),
        "AxisSignature": (
            AxisSignature.from_axis(bestring.y),
            AxisSignature.from_axis(reparsed.y),
        ),
        "ImageSignature": (
            ImageSignature.from_bestring(bestring, picture.labels),
            ImageSignature.from_bestring(reparsed, reversed(picture.labels)),
        ),
    }


VALUES = _values()
NAMES = sorted(VALUES)
#: The two signatures hold dicts, so hashing one raises, as before slots.
HASHABLE = [name for name in NAMES if not name.endswith("Signature")]
FIELDS = {
    "Rectangle": ("x_begin", "y_begin", "x_end", "y_end"),
    "IconObject": ("label", "mbr", "instance"),
    "SymbolicPicture": ("width", "height", "icons", "name"),
    "AxisBEString": ("symbols",),
    "BEString2D": ("x", "y", "name"),
    "AxisSignature": ("length", "boundaries", "dummies", "slots", "begins", "ends"),
    "ImageSignature": ("width", "bitmap", "label_counts", "x", "y"),
}


class _Tampered:
    """Pickles as a call of ``constructor(*arguments)``, as an edited pickle would."""

    def __init__(self, constructor, *arguments):
        self.constructor = constructor
        self.arguments = arguments

    def __reduce__(self):
        return (self.constructor, self.arguments)


@pytest.mark.parametrize("name", NAMES)
class TestContract:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips_at_every_protocol(self, name, protocol):
        value, _ = VALUES[name]
        restored = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert type(restored) is type(value)
        assert restored == value
        if name in HASHABLE:
            assert hash(restored) == hash(value)

    def test_copy_and_deepcopy_are_equal(self, name):
        value, _ = VALUES[name]
        for duplicate in (copy.copy(value), copy.deepcopy(value)):
            assert type(duplicate) is type(value)
            assert duplicate == value

    def test_equal_to_a_value_built_another_way(self, name):
        value, other = VALUES[name]
        assert other is not value
        assert other == value and not other != value
        if name in HASHABLE:
            assert hash(other) == hash(value)
            assert {value: "found"}[other] == "found"
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_frozen_against_assignment_and_deletion(self, name):
        value, _ = VALUES[name]
        for field_name in FIELDS[name]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field_name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field_name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.unknown = 1

    def test_has_slots_and_no_instance_dict(self, name):
        value, _ = VALUES[name]
        assert type(value).__slots__ == FIELDS[name]
        assert not hasattr(value, "__dict__")

    def test_dataclass_helpers_still_work(self, name):
        value, _ = VALUES[name]
        assert tuple(field.name for field in dataclasses.fields(value)) == FIELDS[name]
        assert dataclasses.replace(value) == value
        assert dataclasses.asdict(value) == dataclasses.asdict(VALUES[name][1])
        assert set(dataclasses.asdict(value)) == set(FIELDS[name])


class TestOrdering:
    def test_rectangles_order_as_their_field_tuples(self):
        rectangles = [
            Rectangle(2, 0, 3, 1),
            Rectangle(1, 5, 4, 6),
            Rectangle(1, 2, 4, 3),
            Rectangle(1, 2, 2, 3),
        ]
        assert sorted(rectangles) == sorted(rectangles, key=Rectangle.as_tuple)
        assert Rectangle(1, 2, 2, 3) < Rectangle(1, 2, 4, 3) <= Rectangle(1, 2, 4, 3)

    def test_icons_order_as_label_then_mbr_then_instance(self):
        box = Rectangle(0, 0, 1, 1)
        icons = [
            IconObject("b", box),
            IconObject("a", Rectangle(0, 0, 2, 2)),
            IconObject("a", box, 1),
            IconObject("a", box),
        ]
        key = lambda icon: (icon.label, icon.mbr.as_tuple(), icon.instance)  # noqa: E731
        assert sorted(icons) == sorted(icons, key=key)
        assert IconObject("a", box) < IconObject("a", box, 1) < IconObject("b", box)


class TestSignatureLayout:
    def test_axes_share_one_slot_table_through_every_copy(self):
        value, _ = VALUES["ImageSignature"]
        copies = [copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol=protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        assert value.x.slots is value.y.slots
        for duplicate in copies:
            assert duplicate == value
            assert duplicate.x.slots is duplicate.y.slots

    def test_positions_are_bytes_indexed_by_slot(self):
        value, _ = VALUES["AxisSignature"]
        assert type(value.begins) is type(value.ends) is bytes
        assert sorted(value.slots.values()) == list(range(len(value.begins)))
        assert all(value.begins[slot] < value.ends[slot] for slot in value.slots.values())


class TestReplaceChecksAgain:
    def test_replace_runs_the_constructor_checks(self):
        with pytest.raises(ValueError, match="must not exceed"):
            dataclasses.replace(Rectangle(1, 2, 3, 4), x_end=0)
        icon = IconObject("car", Rectangle(0, 0, 1, 1))
        with pytest.raises(ValueError, match="whitespace"):
            dataclasses.replace(icon, label="coffee mug")
        with pytest.raises(PictureError):
            dataclasses.replace(office_scene(0), width=-1.0)


class TestTamperedPickles:
    """A pickle is rebuilt through the constructor, so its checks run on load."""

    @pytest.mark.parametrize(
        "tampered, error, phrase",
        [
            (_Tampered(Rectangle, 5.0, 0.0, 1.0, 1.0), ValueError, "must not exceed"),
            (_Tampered(Rectangle, math.nan, 0.0, 1.0, 1.0), ValueError, "must not exceed"),
            (
                _Tampered(IconObject, "coffee mug", Rectangle(0, 0, 1, 1), 0),
                ValueError,
                "whitespace",
            ),
            (
                _Tampered(IconObject, "car", Rectangle(0, 0, 1, 1), 1.5),
                ValueError,
                "must be an integer",
            ),
            (_Tampered(SymbolicPicture, math.nan, 10.0, (), "p"), PictureError, "positive"),
            (_Tampered(SymbolicPicture, 10.0, 10.0, (), 5), PictureError, "must be a string"),
            (
                _Tampered(
                    SymbolicPicture,
                    10.0,
                    10.0,
                    (IconObject("car", Rectangle(0, 0, 12, 1)),),
                    "p",
                ),
                PictureError,
                "exceeds",
            ),
        ],
    )
    def test_loading_an_invalid_value_raises(self, tampered, error, phrase):
        data = pickle.dumps(tampered)
        with pytest.raises(error, match=phrase):
            pickle.loads(data)

    def test_an_untampered_pickle_names_the_constructor(self):
        # The same bytes an honest pickle of the value would be.
        value = Rectangle(1.0, 2.0, 3.0, 4.0)
        assert pickle.dumps(_Tampered(Rectangle, 1.0, 2.0, 3.0, 4.0)) == pickle.dumps(value)
