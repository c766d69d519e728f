"""Unit tests for symbolic pictures."""

import pytest

from repro.geometry.allen import AllenRelation
from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import PictureError, SymbolicPicture, fig1_picture


class TestConstruction:
    def test_requires_positive_frame(self):
        with pytest.raises(PictureError):
            SymbolicPicture(width=0, height=10)
        with pytest.raises(PictureError):
            SymbolicPicture(width=10, height=-1)

    def test_rejects_a_nan_frame(self):
        for width, height in ((float("nan"), 10.0), (10.0, float("nan"))):
            with pytest.raises(PictureError, match="positive width"):
                SymbolicPicture(width=width, height=height)
        payload = {"width": float("nan"), "height": 10, "icons": [], "name": "p"}
        with pytest.raises(PictureError, match="positive width"):
            SymbolicPicture.from_dict(payload)

    @pytest.mark.parametrize("name", [5, None, ["p"]])
    def test_rejects_a_name_that_is_not_a_string(self, name):
        with pytest.raises(PictureError, match="must be a string"):
            SymbolicPicture(width=10, height=10, name=name)
        payload = {"width": 10, "height": 10, "icons": [], "name": name}
        with pytest.raises(PictureError, match="must be a string"):
            SymbolicPicture.from_dict(payload)

    def test_icons_must_fit_in_frame(self):
        with pytest.raises(PictureError):
            SymbolicPicture.build(
                width=10, height=10, objects=[("A", Rectangle(5, 5, 12, 8))]
            )

    def test_build_assigns_instances_to_repeated_labels(self):
        picture = SymbolicPicture.build(
            width=10,
            height=10,
            objects=[("tree", Rectangle(0, 0, 1, 1)), ("tree", Rectangle(2, 2, 3, 3))],
        )
        assert picture.identifiers == ["tree", "tree#1"]

    def test_duplicate_identifiers_rejected(self):
        from repro.iconic.icon import IconObject

        icon = IconObject(label="tree", mbr=Rectangle(0, 0, 1, 1))
        with pytest.raises(PictureError):
            SymbolicPicture(width=10, height=10, icons=(icon, icon))

    def test_the_icon_named_is_the_first_failure_in_canonical_order(self):
        from repro.iconic.icon import IconObject

        outside = Rectangle(5, 5, 12, 8)
        icons = (
            IconObject(label="b", mbr=Rectangle(0, 0, 1, 1)),
            IconObject(label="zebra", mbr=outside),
            IconObject(label="ant", mbr=outside),
            IconObject(label="b", mbr=Rectangle(2, 2, 3, 3)),
        )
        for order in (icons, tuple(reversed(icons))):
            with pytest.raises(PictureError, match="^icon 'ant' MBR"):
                SymbolicPicture(width=10, height=10, icons=order)

    def test_canonical_icon_order_makes_equal_pictures_equal(self):
        objects = [("b", Rectangle(0, 0, 1, 1)), ("a", Rectangle(2, 2, 3, 3))]
        first = SymbolicPicture.build(width=10, height=10, objects=objects)
        second = SymbolicPicture.build(width=10, height=10, objects=list(reversed(objects)))
        assert first == second


class TestAccess:
    def test_len_iter_labels(self, two_object_picture):
        assert len(two_object_picture) == 2
        assert {icon.label for icon in two_object_picture} == {"A", "B"}
        assert two_object_picture.labels == ["A", "B"]

    def test_icon_lookup(self, two_object_picture):
        assert two_object_picture.icon("A").mbr == Rectangle(2, 2, 8, 6)
        assert two_object_picture.has_icon("B")
        assert not two_object_picture.has_icon("C")
        with pytest.raises(KeyError):
            two_object_picture.icon("C")

    def test_icons_with_label(self):
        picture = SymbolicPicture.build(
            width=10,
            height=10,
            objects=[("tree", Rectangle(0, 0, 1, 1)), ("tree", Rectangle(2, 2, 3, 3))],
        )
        trees = picture.icons_with_label("tree")
        assert [icon.instance for icon in trees] == [0, 1]


class TestEditing:
    def test_add_icon_returns_new_picture(self, two_object_picture):
        grown = two_object_picture.add_icon("C", Rectangle(0, 0, 1, 1))
        assert len(grown) == 3
        assert len(two_object_picture) == 2

    def test_add_icon_increments_instance(self, two_object_picture):
        grown = two_object_picture.add_icon("A", Rectangle(0, 8, 1, 9))
        assert grown.has_icon("A#1")

    def test_remove_icon(self, two_object_picture):
        shrunk = two_object_picture.remove_icon("A")
        assert shrunk.identifiers == ["B"]
        with pytest.raises(KeyError):
            two_object_picture.remove_icon("missing")

    def test_subset(self, fig1):
        subset = fig1.subset(["A", "C"])
        assert subset.identifiers == ["A", "C"]
        with pytest.raises(KeyError):
            fig1.subset(["A", "missing"])

    def test_renamed(self, fig1):
        assert fig1.renamed("other").name == "other"
        assert fig1.renamed("other").icons == fig1.icons


class TestGeometricTransforms:
    def test_rotate90_swaps_frame(self, fig1):
        rotated = fig1.rotate90()
        assert rotated.width == fig1.height
        assert rotated.height == fig1.width
        assert len(rotated) == len(fig1)

    def test_rotate90_four_times_is_identity(self, fig1):
        picture = fig1
        for _ in range(4):
            picture = picture.rotate90()
        assert picture == fig1

    def test_rotate180_twice_is_identity(self, fig1):
        assert fig1.rotate180().rotate180() == fig1

    def test_reflections_are_involutions(self, fig1):
        assert fig1.reflect_x().reflect_x() == fig1
        assert fig1.reflect_y().reflect_y() == fig1

    def test_two_reflections_equal_rotate180(self, fig1):
        assert fig1.reflect_x().reflect_y() == fig1.rotate180()


class TestRelations:
    def test_relation_between(self, fig1):
        relation = fig1.relation_between("A", "B")
        # A is left of and above B in the Figure 1 layout.
        assert relation.x is AllenRelation.MEETS or relation.x is AllenRelation.BEFORE
        assert relation.y is AllenRelation.AFTER

    def test_pairwise_relations_cover_all_pairs(self, fig1):
        relations = fig1.pairwise_relations()
        assert set(relations) == {("A", "B"), ("A", "C"), ("B", "C")}


class TestSerialisation:
    def test_roundtrip(self, fig1):
        assert SymbolicPicture.from_dict(fig1.to_dict()) == fig1

    def test_fig1_builder_matches_paper_structure(self):
        picture = fig1_picture()
        assert picture.identifiers == ["A", "B", "C"]
        # The boundary coincidences that Figure 1 illustrates:
        assert picture.icon("A").mbr.x_end == picture.icon("C").mbr.x_begin
        assert picture.icon("B").mbr.y_end == picture.icon("C").mbr.y_begin
