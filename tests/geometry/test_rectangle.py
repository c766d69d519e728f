"""Unit tests for repro.geometry.rectangle."""

import pytest

from repro.geometry.interval import Interval
from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle


class TestConstruction:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Rectangle(5, 0, 1, 10)
        with pytest.raises(ValueError):
            Rectangle(0, 5, 10, 1)

    @pytest.mark.parametrize("position", range(4))
    def test_rejects_a_nan_coordinate(self, position):
        coordinates = [0.0, 0.0, 1.0, 1.0]
        coordinates[position] = float("nan")
        with pytest.raises(ValueError, match="must not exceed"):
            Rectangle(*coordinates)

    def test_from_origin_size_rejects_a_nan_size(self):
        with pytest.raises(ValueError, match="non-negative"):
            Rectangle.from_origin_size(0, 0, float("nan"), 2)

    def test_from_corners_any_order(self):
        expected = Rectangle(1, 2, 5, 7)
        assert Rectangle.from_corners(Point(5, 7), Point(1, 2)) == expected
        assert Rectangle.from_corners(Point(1, 7), Point(5, 2)) == expected

    def test_from_intervals_and_projections_roundtrip(self):
        rectangle = Rectangle.from_intervals(Interval(1, 5), Interval(2, 7))
        assert rectangle.x_interval == Interval(1, 5)
        assert rectangle.y_interval == Interval(2, 7)

    def test_from_origin_size(self):
        assert Rectangle.from_origin_size(1, 2, 4, 5) == Rectangle(1, 2, 5, 7)
        with pytest.raises(ValueError):
            Rectangle.from_origin_size(0, 0, -1, 2)


class TestMeasures:
    def test_width_height_area_center(self):
        rectangle = Rectangle(1, 2, 5, 7)
        assert rectangle.width == 4
        assert rectangle.height == 5
        assert rectangle.area == 20
        assert rectangle.center == Point(3, 4.5)

    def test_corners_and_tuple(self):
        rectangle = Rectangle(1, 2, 5, 7)
        assert rectangle.bottom_left == Point(1, 2)
        assert rectangle.top_right == Point(5, 7)
        assert rectangle.as_tuple() == (1, 2, 5, 7)
        assert tuple(rectangle) == (1, 2, 5, 7)


class TestPredicates:
    def test_contains_point_boundary_inclusive(self):
        rectangle = Rectangle(0, 0, 4, 4)
        assert rectangle.contains_point(Point(0, 0))
        assert rectangle.contains_point(Point(4, 4))
        assert not rectangle.contains_point(Point(4.1, 4))

    def test_contains_rectangle(self):
        assert Rectangle(0, 0, 10, 10).contains(Rectangle(2, 2, 5, 5))
        assert Rectangle(0, 0, 10, 10).contains(Rectangle(0, 0, 10, 10))
        assert not Rectangle(0, 0, 10, 10).contains(Rectangle(5, 5, 11, 6))

    def test_intersections(self):
        a = Rectangle(0, 0, 4, 4)
        assert a.intersects(Rectangle(4, 4, 6, 6))  # corner touch
        assert not a.strictly_intersects(Rectangle(4, 4, 6, 6))
        assert a.strictly_intersects(Rectangle(3, 3, 6, 6))
        assert not a.intersects(Rectangle(5, 5, 6, 6))


class TestCombinations:
    def test_intersection_rectangle(self):
        a = Rectangle(0, 0, 4, 4)
        assert a.intersection(Rectangle(2, 2, 6, 6)) == Rectangle(2, 2, 4, 4)
        assert a.intersection(Rectangle(5, 5, 6, 6)) is None

    def test_union_hull(self):
        assert Rectangle(0, 0, 1, 1).union_hull(Rectangle(4, 5, 6, 7)) == Rectangle(0, 0, 6, 7)

    def test_translate_and_scale(self):
        assert Rectangle(1, 1, 2, 2).translate(3, 4) == Rectangle(4, 5, 5, 6)
        assert Rectangle(1, 1, 2, 2).scale(2) == Rectangle(2, 2, 4, 4)
        with pytest.raises(ValueError):
            Rectangle(1, 1, 2, 2).scale(-2)


class TestFrameTransforms:
    FRAME_W, FRAME_H = 10.0, 6.0

    def test_reflect_y_axis(self):
        rectangle = Rectangle(1, 2, 4, 5)
        assert rectangle.reflect_y_axis(self.FRAME_W) == Rectangle(6, 2, 9, 5)

    def test_reflect_x_axis(self):
        rectangle = Rectangle(1, 2, 4, 5)
        assert rectangle.reflect_x_axis(self.FRAME_H) == Rectangle(1, 1, 4, 4)

    def test_reflections_are_involutions(self):
        rectangle = Rectangle(1, 2, 4, 5)
        assert rectangle.reflect_y_axis(self.FRAME_W).reflect_y_axis(self.FRAME_W) == rectangle
        assert rectangle.reflect_x_axis(self.FRAME_H).reflect_x_axis(self.FRAME_H) == rectangle

    def test_rotate90_is_contained_in_rotated_frame(self):
        rectangle = Rectangle(1, 2, 4, 5)
        rotated = rectangle.rotate90(self.FRAME_W, self.FRAME_H)
        assert Rectangle(0, 0, self.FRAME_H, self.FRAME_W).contains(rotated)

    def test_rotate90_then_270_is_identity(self):
        rectangle = Rectangle(1, 2, 4, 5)
        rotated = rectangle.rotate90(self.FRAME_W, self.FRAME_H)
        # The rotated rectangle lives in a (H x W) frame.
        back = rotated.rotate270(self.FRAME_H, self.FRAME_W)
        assert back == rectangle

    def test_rotate180_twice_is_identity(self):
        rectangle = Rectangle(1, 2, 4, 5)
        once = rectangle.rotate180(self.FRAME_W, self.FRAME_H)
        assert once.rotate180(self.FRAME_W, self.FRAME_H) == rectangle

    def test_rotate90_composed_twice_equals_rotate180(self):
        rectangle = Rectangle(1, 2, 4, 5)
        twice = rectangle.rotate90(self.FRAME_W, self.FRAME_H).rotate90(self.FRAME_H, self.FRAME_W)
        assert twice == rectangle.rotate180(self.FRAME_W, self.FRAME_H)

    def test_area_preserved_by_all_frame_transforms(self):
        rectangle = Rectangle(1, 2, 4, 5)
        assert rectangle.rotate90(self.FRAME_W, self.FRAME_H).area == rectangle.area
        assert rectangle.rotate180(self.FRAME_W, self.FRAME_H).area == rectangle.area
        assert rectangle.rotate270(self.FRAME_W, self.FRAME_H).area == rectangle.area
        assert rectangle.reflect_x_axis(self.FRAME_H).area == rectangle.area
        assert rectangle.reflect_y_axis(self.FRAME_W).area == rectangle.area
