"""Unit tests for icon objects."""

import json

import pytest

from repro.geometry.rectangle import Rectangle
from repro.iconic import icon as icon_module
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

    @pytest.mark.parametrize("instance", [1.5, 2.0, True, False, "1", None])
    def test_rejects_instances_that_are_not_integers(self, instance):
        with pytest.raises(ValueError, match="must be an integer"):
            IconObject(label="car", mbr=Rectangle(0, 0, 1, 1), instance=instance)

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

    @pytest.mark.parametrize("instance", [1.5, 2.0, 0.0, True, False])
    def test_from_dict_refuses_a_stored_instance_that_is_not_an_integer(self, instance):
        # Read back through ``int()``, 1.5 used to load as instance 1 and 0.0
        # or False as 0.
        payload = {"label": "car", "mbr": [0, 0, 1, 1], "instance": instance}
        with pytest.raises(ValueError, match="must be an integer"):
            IconObject.from_dict(payload)

    def test_ordering_is_by_label_then_mbr(self):
        a = IconObject(label="a", mbr=Rectangle(0, 0, 1, 1))
        b = IconObject(label="b", mbr=Rectangle(0, 0, 1, 1))
        assert a < b


class TestSharedLabels:
    """Icons share one string per label through a bounded table of checked labels."""

    def test_equal_labels_share_one_object(self):
        first = IconObject("".join(["tr", "uck"]), Rectangle(0, 0, 1, 1))
        second = IconObject("".join(["tru", "ck"]), Rectangle(1, 1, 2, 2), 1)
        entries = json.loads('[{"label": "truck", "mbr": [0, 0, 1, 1]}]')
        entries += json.loads('[{"label": "truck", "mbr": [0, 0, 2, 2]}]')
        assert entries[0]["label"] is not entries[1]["label"]
        assert first.label is second.label
        for entry in entries:
            assert IconObject.from_dict(entry).label is first.label
        assert first.with_mbr(Rectangle(3, 3, 4, 4)).label is first.label

    def test_table_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(icon_module, "_LABELS", {})
        monkeypatch.setattr(icon_module, "BOUNDARY_INTERN_LIMIT", 8)
        for index in range(20):
            label = f"label-{index}"
            assert IconObject(label, Rectangle(0, 0, 1, 1)).label == label
            assert 0 < len(icon_module._LABELS) <= 8
        shared = icon_module._LABELS["label-19"]
        assert IconObject("label-19", Rectangle(0, 0, 1, 1)).label is shared

    def test_overlong_labels_are_not_retained(self, monkeypatch):
        monkeypatch.setattr(icon_module, "_LABELS", {})
        label = "x" * (icon_module.BOUNDARY_INTERN_MAX_LENGTH + 1)
        assert IconObject(label, Rectangle(0, 0, 1, 1)).label == label
        assert not icon_module._LABELS
        fitting = label[:-1]
        IconObject(fitting, Rectangle(0, 0, 1, 1))
        assert list(icon_module._LABELS) == [fitting]

    def test_rejected_labels_never_enter_the_table(self, monkeypatch):
        monkeypatch.setattr(icon_module, "_LABELS", {})
        for _ in range(3):
            for label in ("", "coffee mug", "car\n", 5, b"car", None):
                with pytest.raises(ValueError):
                    IconObject(label, Rectangle(0, 0, 1, 1))
        assert icon_module._LABELS == {}

    def test_a_hit_is_only_a_plain_string(self, monkeypatch):
        class Label(str):
            pass

        monkeypatch.setattr(icon_module, "_LABELS", {})
        IconObject("car", Rectangle(0, 0, 1, 1))
        subclassed = IconObject(Label("car"), Rectangle(0, 0, 1, 1))
        assert type(subclassed.label) is Label
        assert list(icon_module._LABELS) == ["car"]
        with pytest.raises(ValueError, match="whitespace"):
            IconObject(Label("coffee mug"), Rectangle(0, 0, 1, 1))

