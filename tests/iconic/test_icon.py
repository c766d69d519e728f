"""Unit tests for icon objects."""

import pytest

from repro.geometry.rectangle import Rectangle
from repro.iconic.icon import IconObject


class TestConstruction:
    def test_requires_label(self):
        with pytest.raises(ValueError):
            IconObject(label="", mbr=Rectangle(0, 0, 1, 1))

    @pytest.mark.parametrize(
        "label", ["coffee mug", " car", "car\n", "a\tb", "x\u00a0y", "x\u2028y"]
    )
    def test_rejects_whitespace_in_labels(self, label):
        with pytest.raises(ValueError, match="whitespace"):
            IconObject(label=label, mbr=Rectangle(0, 0, 1, 1))

    @pytest.mark.parametrize("label", [None, 5, b"car"])
    def test_rejects_labels_that_are_not_strings(self, label):
        with pytest.raises(ValueError, match="non-empty string"):
            IconObject(label=label, mbr=Rectangle(0, 0, 1, 1))

    def test_accepts_labels_without_whitespace(self):
        for label in ("car", "car#1", "a.b", "E", "\u00e9t\u00e9"):
            assert IconObject(label=label, mbr=Rectangle(0, 0, 1, 1)).label == label

    def test_requires_non_negative_instance(self):
        with pytest.raises(ValueError):
            IconObject(label="car", mbr=Rectangle(0, 0, 1, 1), instance=-1)

    def test_identifier_formats(self):
        base = IconObject(label="car", mbr=Rectangle(0, 0, 1, 1))
        assert base.identifier == "car"
        second = base.with_instance(2)
        assert second.identifier == "car#2"

    def test_area(self):
        icon = IconObject(label="car", mbr=Rectangle(0, 0, 4, 2))
        assert icon.area == 8


class TestDerivedCopies:
    def test_with_mbr_preserves_identity(self):
        icon = IconObject(label="car", mbr=Rectangle(0, 0, 1, 1), instance=1)
        moved = icon.with_mbr(Rectangle(5, 5, 6, 6))
        assert moved.label == "car"
        assert moved.instance == 1
        assert moved.mbr == Rectangle(5, 5, 6, 6)
        assert icon.mbr == Rectangle(0, 0, 1, 1)  # original untouched

    def test_translate(self):
        icon = IconObject(label="car", mbr=Rectangle(0, 0, 1, 1))
        assert icon.translate(2, 3).mbr == Rectangle(2, 3, 3, 4)


class TestSerialisation:
    def test_roundtrip(self):
        icon = IconObject(label="car", mbr=Rectangle(1, 2, 3, 4), instance=2)
        assert IconObject.from_dict(icon.to_dict()) == icon

    def test_from_dict_defaults_instance(self):
        payload = {"label": "car", "mbr": [0, 0, 1, 1]}
        assert IconObject.from_dict(payload).instance == 0

    def test_ordering_is_by_label_then_mbr(self):
        a = IconObject(label="a", mbr=Rectangle(0, 0, 1, 1))
        b = IconObject(label="b", mbr=Rectangle(0, 0, 1, 1))
        assert a < b
